// Property tests for the protocol-v2 key-derivation chain (auth/auth.h on
// top of crypto/fuzzy_extractor.h and crypto/cyclic_code.h).
//
// The contract the exchange rests on, swept over seeded enrollments for
// every registered code (ROPUF_PROPERTY_SEEDS widens the sweep):
//
//   * within radius  — a noisy re-measurement with at most t errors per
//     code block recovers the enrolled key EXACTLY;
//   * beyond radius  — t+1 errors in one block never return the enrolled
//     key (nullopt, or a different key whose tag the verifier rejects):
//     the prover fails closed instead of authenticating on luck;
//   * tampered helper material (helper bits, key check value, geometry)
//     makes the server-side derivation fail detectably, never silently
//     derive garbage.
//
// Plus the deterministic nonce factory and the proof/verify round trip the
// wire exchange uses.
#include "auth/auth.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "crypto/cyclic_code.h"
#include "puf/schemes.h"

namespace ropuf {
namespace {

std::size_t property_seed_count(std::size_t fallback) {
  const char* env = std::getenv("ROPUF_PROPERTY_SEEDS");
  if (env == nullptr || *env == '\0') return fallback;
  const long parsed = std::strtol(env, nullptr, 10);
  return parsed >= 1 ? static_cast<std::size_t>(parsed) : fallback;
}

puf::ConfigurableEnrollment sample_enrollment(std::uint64_t seed,
                                              std::size_t pairs) {
  Rng rng(seed);
  const puf::BoardLayout layout{4, pairs};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  return puf::configurable_enroll(values, layout, puf::SelectionCase::kIndependent);
}

/// Provisions and returns the enrolled key (asserting provisioning took).
crypto::Sha256Digest provisioned_key(puf::ConfigurableEnrollment& enrollment,
                                     std::uint64_t seed) {
  Rng rng(seed ^ 0xa07);
  auth::provision_auth(enrollment, rng);
  const std::optional<crypto::Sha256Digest> key =
      auth::derive_enrollment_key(enrollment);
  EXPECT_TRUE(key.has_value());
  return key.value_or(crypto::Sha256Digest{});
}

/// Pair counts that exercise each code, and the code they must select.
struct CodeCase {
  std::size_t pairs;
  std::uint8_t code_id;
  std::size_t t;       ///< correction radius
  std::size_t n;       ///< block length
};
const CodeCase kCodeCases[] = {
    {3, auth::kCodeRepetition3, 1, 3},
    {5, auth::kCodeRepetition5, 2, 5},
    {8, auth::kCodeHamming74, 1, 7},
    {16, auth::kCodeBch157, 2, 15},
    {31, auth::kCodeBch157, 2, 15},  // two BCH blocks
};

TEST(AuthCodes, CodeIdForPairsSelectsTheStrongestFittingCode) {
  EXPECT_EQ(auth::code_id_for_pairs(0), auth::kCodeNone);
  EXPECT_EQ(auth::code_id_for_pairs(2), auth::kCodeNone);
  EXPECT_EQ(auth::code_id_for_pairs(3), auth::kCodeRepetition3);
  EXPECT_EQ(auth::code_id_for_pairs(4), auth::kCodeRepetition3);
  EXPECT_EQ(auth::code_id_for_pairs(5), auth::kCodeRepetition5);
  EXPECT_EQ(auth::code_id_for_pairs(6), auth::kCodeRepetition5);
  EXPECT_EQ(auth::code_id_for_pairs(7), auth::kCodeHamming74);
  EXPECT_EQ(auth::code_id_for_pairs(14), auth::kCodeHamming74);
  EXPECT_EQ(auth::code_id_for_pairs(15), auth::kCodeBch157);
  EXPECT_EQ(auth::code_id_for_pairs(1000), auth::kCodeBch157);
}

TEST(AuthCodes, CodeForIdCoversTheRegistry) {
  EXPECT_EQ(auth::code_for_id(auth::kCodeNone), nullptr);
  EXPECT_EQ(auth::code_for_id(200), nullptr);
  for (const CodeCase& c : kCodeCases) {
    const crypto::CyclicCode* code = auth::code_for_id(c.code_id);
    ASSERT_NE(code, nullptr);
    EXPECT_EQ(code->n(), c.n);
    EXPECT_EQ(code->t(), c.t);
  }
}

TEST(AuthProvisioning, TooSmallDevicesStayUnprovisioned) {
  puf::ConfigurableEnrollment enrollment = sample_enrollment(1, 2);
  Rng rng(2);
  auth::provision_auth(enrollment, rng);
  EXPECT_EQ(enrollment.auth_code_id, auth::kCodeNone);
  EXPECT_FALSE(enrollment.has_auth());
  EXPECT_FALSE(auth::derive_enrollment_key(enrollment).has_value());
  EXPECT_FALSE(auth::recover_key(enrollment.response(), enrollment).has_value());
}

TEST(AuthFuzzyProperty, ExactRecoveryWithinRadiusSweep) {
  const std::size_t seeds = property_seed_count(12);
  for (const CodeCase& c : kCodeCases) {
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 0x9a11 + s * 131 + c.pairs;
      puf::ConfigurableEnrollment enrollment = sample_enrollment(seed, c.pairs);
      ASSERT_EQ(enrollment.auth_code_id, auth::kCodeNone);
      const crypto::Sha256Digest key = provisioned_key(enrollment, seed);
      ASSERT_EQ(enrollment.auth_code_id, c.code_id);

      const std::size_t blocks = enrollment.auth_helper.size();
      ASSERT_EQ(blocks, c.pairs / c.n);
      Rng flips(seed ^ 0xf11b);
      // Every error count up to t, independently in EVERY block: the
      // worst correctable noise pattern must still round-trip the key.
      for (std::size_t errors = 0; errors <= c.t; ++errors) {
        BitVec noisy = enrollment.response();
        for (std::size_t b = 0; b < blocks; ++b) {
          std::vector<std::size_t> positions;
          while (positions.size() < errors) {
            const std::size_t p = b * c.n + flips.uniform_below(c.n);
            bool fresh = true;
            for (const std::size_t q : positions) fresh &= (q != p);
            if (fresh) positions.push_back(p);
          }
          for (const std::size_t p : positions) noisy.set(p, !noisy.get(p));
        }
        const std::optional<crypto::Sha256Digest> recovered =
            auth::recover_key(noisy, enrollment);
        ASSERT_TRUE(recovered.has_value())
            << "code " << int(c.code_id) << " seed " << s << " errors " << errors;
        EXPECT_EQ(*recovered, key)
            << "code " << int(c.code_id) << " seed " << s << " errors " << errors;
      }
    }
  }
}

TEST(AuthFuzzyProperty, BeyondRadiusFailsClosedSweep) {
  const std::size_t seeds = property_seed_count(12);
  for (const CodeCase& c : kCodeCases) {
    for (std::size_t s = 0; s < seeds; ++s) {
      const std::uint64_t seed = 0xbe70 + s * 97 + c.pairs;
      puf::ConfigurableEnrollment enrollment = sample_enrollment(seed, c.pairs);
      provisioned_key(enrollment, seed);

      // t+1 errors inside block 0: past the bounded-distance radius the
      // decoder either reports failure or lands on a WRONG codeword, which
      // the key check value catches — either way the prover is keyless.
      Rng flips(seed ^ 0x0dd);
      BitVec noisy = enrollment.response();
      std::vector<std::size_t> positions;
      while (positions.size() < c.t + 1) {
        const std::size_t p = flips.uniform_below(c.n);
        bool fresh = true;
        for (const std::size_t q : positions) fresh &= (q != p);
        if (fresh) positions.push_back(p);
      }
      for (const std::size_t p : positions) noisy.set(p, !noisy.get(p));

      const std::optional<crypto::Sha256Digest> recovered =
          auth::recover_key(noisy, enrollment);
      EXPECT_FALSE(recovered.has_value())
          << "code " << int(c.code_id) << " seed " << s
          << ": a key recovered past the correction radius";
    }
  }
}

TEST(AuthDerivation, TamperedHelperMaterialFailsDetectably) {
  puf::ConfigurableEnrollment enrollment = sample_enrollment(0x7a3, 16);
  provisioned_key(enrollment, 0x7a3);

  {  // Helper tampering within the code's radius is *absorbed* (decode
     // corrects it back — the fuzzy extractor working as designed), so a
     // detectable tamper must exceed t: past it the derived key drifts off
     // the check value and derivation fails closed.
    puf::ConfigurableEnrollment in_radius = enrollment;
    in_radius.auth_helper[0].set(3, !in_radius.auth_helper[0].get(3));
    EXPECT_TRUE(auth::derive_enrollment_key(in_radius).has_value());

    puf::ConfigurableEnrollment tampered = enrollment;
    for (const std::size_t bit : {1u, 3u, 5u}) {  // t+1 = 3 for BCH(15,7)
      tampered.auth_helper[0].set(bit, !tampered.auth_helper[0].get(bit));
    }
    EXPECT_FALSE(auth::derive_enrollment_key(tampered).has_value());
  }
  {  // A corrupted key check value can never match.
    puf::ConfigurableEnrollment tampered = enrollment;
    tampered.auth_key_check[0] ^= 0x80;
    EXPECT_FALSE(auth::derive_enrollment_key(tampered).has_value());
  }
  {  // Wrong block geometry for the declared code.
    puf::ConfigurableEnrollment tampered = enrollment;
    tampered.auth_helper[0] = BitVec(7);
    EXPECT_FALSE(auth::derive_enrollment_key(tampered).has_value());
    EXPECT_FALSE(auth::recover_key(tampered.response(), tampered).has_value());
  }
  {  // Unknown code id.
    puf::ConfigurableEnrollment tampered = enrollment;
    tampered.auth_code_id = 99;
    EXPECT_FALSE(auth::derive_enrollment_key(tampered).has_value());
  }
  {  // A re-measurement shorter than the helper-covered span fails closed.
    EXPECT_FALSE(auth::recover_key(BitVec(8), enrollment).has_value());
  }
}

TEST(AuthProof, ProveVerifyRoundTripAndBindings) {
  crypto::Sha256Digest key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  auth::NonceFactory nonces(0x5eed);
  const auth::Nonce nonce = nonces.next(7, 41);

  const auth::Tag tag = auth::prove(key, nonce, 41, 7);
  EXPECT_TRUE(auth::verify_tag(key, nonce, 41, 7, tag));

  // The tag binds every input: request id, device id, nonce, and key.
  EXPECT_FALSE(auth::verify_tag(key, nonce, 42, 7, tag));
  EXPECT_FALSE(auth::verify_tag(key, nonce, 41, 8, tag));
  EXPECT_FALSE(auth::verify_tag(key, nonces.next(7, 41), 41, 7, tag));
  crypto::Sha256Digest other_key = key;
  other_key[31] ^= 1;
  EXPECT_FALSE(auth::verify_tag(other_key, nonce, 41, 7, tag));

  // An all-zeros tag (the keyless prover's answer) never verifies.
  EXPECT_FALSE(auth::verify_tag(key, nonce, 41, 7, auth::Tag{}));
}

template <std::size_t N>
std::string hex(const std::array<std::uint8_t, N>& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : bytes) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

TEST(AuthWireBytes, NonceAndTagBytesArePinned) {
  // The online-vs-offline parity tests run one HMAC on both sides, so an
  // error both sides share passes them; only fixed bytes catch it.
  auth::NonceFactory nonces(0x5eed);
  EXPECT_EQ(hex(nonces.next(7, 41)), "908548a985b9019ce63e8605bc940297");
  EXPECT_EQ(hex(nonces.next(7, 41)), "1d66bbcf6149ec694a3a67a61f1158bb");

  crypto::Sha256Digest key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i);
  auth::Nonce nonce{};
  for (std::size_t i = 0; i < nonce.size(); ++i) {
    nonce[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  const std::string expected =
      "4efd10d76bb79f1b9128367901b8ff2d283cb194f28802d15806b61e1db33fe0";
  const auth::Tag tag = auth::prove(key, nonce, 41, 7);
  EXPECT_EQ(hex(tag), expected);
  EXPECT_TRUE(auth::verify_tag(key, nonce, 41, 7, tag));

  // The key-object overloads the server uses answer the same bytes.
  const crypto::HmacSha256Key key_object(key.data(), key.size());
  EXPECT_EQ(hex(auth::prove(key_object, nonce, 41, 7)), expected);
  EXPECT_TRUE(auth::verify_tag(key_object, nonce, 41, 7, tag));
  EXPECT_FALSE(auth::verify_tag(key_object, nonce, 42, 7, tag));
}

TEST(AuthNonces, FactoryIsSeededDeterministicAndCounterFresh) {
  auth::NonceFactory a(0x11);
  auth::NonceFactory b(0x11);
  auth::NonceFactory c(0x22);

  const auth::Nonce a1 = a.next(5, 1);
  const auth::Nonce b1 = b.next(5, 1);
  EXPECT_EQ(a1, b1);  // same seed, same counter, same ids — same nonce
  EXPECT_NE(a1, c.next(5, 1));

  // The counter makes repeats of the same (device, request) fresh — the
  // freshness replays die on.
  EXPECT_NE(a.next(5, 1), a1);
}

TEST(AuthNonces, ConstantTimeEqualAgreesWithEquality) {
  const std::array<std::uint8_t, 4> x{1, 2, 3, 4};
  std::array<std::uint8_t, 4> y = x;
  EXPECT_TRUE(auth::constant_time_equal(x.data(), y.data(), x.size()));
  y[3] ^= 0x10;
  EXPECT_FALSE(auth::constant_time_equal(x.data(), y.data(), x.size()));
  EXPECT_TRUE(auth::constant_time_equal(x.data(), y.data(), 0));
}

}  // namespace
}  // namespace ropuf

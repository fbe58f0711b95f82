#include "auth/auth.h"

#include <cstring>

#include "common/error.h"
#include "crypto/fuzzy_extractor.h"
#include "crypto/hmac.h"

namespace ropuf::auth {
namespace {

const crypto::CyclicCode& repetition3() {
  static const crypto::CyclicCode code = crypto::CyclicCode::repetition(3);
  return code;
}
const crypto::CyclicCode& repetition5() {
  static const crypto::CyclicCode code = crypto::CyclicCode::repetition(5);
  return code;
}
const crypto::CyclicCode& hamming74() {
  static const crypto::CyclicCode code = crypto::CyclicCode::hamming_7_4();
  return code;
}
const crypto::CyclicCode& bch157() {
  static const crypto::CyclicCode code = crypto::CyclicCode::bch_15_7();
  return code;
}

/// Helper geometry a verifier can trust: right code, every block exactly
/// n bits, at least one block, and the enrolled response long enough to
/// cover them.
bool helper_is_consistent(const puf::ConfigurableEnrollment& enrollment,
                          const crypto::CyclicCode& code) {
  if (enrollment.auth_helper.empty()) return false;
  for (const BitVec& block : enrollment.auth_helper) {
    if (block.size() != code.n()) return false;
  }
  return enrollment.layout.pair_count >=
         enrollment.auth_helper.size() * code.n();
}

/// nonce || request_id || device_id, ids little-endian — the exact bytes
/// both sides MAC. Binding the request id defeats replay across sessions;
/// binding the device id defeats splicing a tag onto another identity.
std::array<std::uint8_t, 32> proof_message(const Nonce& nonce,
                                           std::uint64_t request_id,
                                           std::uint64_t device_id) {
  std::array<std::uint8_t, 32> message{};
  std::memcpy(message.data(), nonce.data(), nonce.size());
  for (std::size_t i = 0; i < 8; ++i) {
    message[16 + i] = static_cast<std::uint8_t>((request_id >> (8 * i)) & 0xff);
    message[24 + i] = static_cast<std::uint8_t>((device_id >> (8 * i)) & 0xff);
  }
  return message;
}

}  // namespace

const crypto::CyclicCode* code_for_id(std::uint8_t code_id) {
  switch (code_id) {
    case kCodeRepetition3:
      return &repetition3();
    case kCodeRepetition5:
      return &repetition5();
    case kCodeHamming74:
      return &hamming74();
    case kCodeBch157:
      return &bch157();
    default:
      return nullptr;
  }
}

std::uint8_t code_id_for_pairs(std::size_t pair_count) {
  if (pair_count >= 15) return kCodeBch157;
  if (pair_count >= 7) return kCodeHamming74;
  if (pair_count >= 5) return kCodeRepetition5;
  if (pair_count >= 3) return kCodeRepetition3;
  return kCodeNone;
}

void provision_auth(puf::ConfigurableEnrollment& enrollment, Rng& rng) {
  enrollment.auth_code_id = kCodeNone;
  enrollment.auth_helper.clear();
  enrollment.auth_key_check.fill(0);

  const std::uint8_t code_id = code_id_for_pairs(enrollment.layout.pair_count);
  if (code_id == kCodeNone) return;
  const crypto::CyclicCode* code = code_for_id(code_id);
  const crypto::FuzzyExtractor extractor(code);
  const crypto::FuzzyEnrollment fuzzy = extractor.generate(enrollment.response(), rng);

  enrollment.auth_code_id = code_id;
  enrollment.auth_helper = fuzzy.helper;
  enrollment.auth_key_check = crypto::sha256(fuzzy.key.data(), fuzzy.key.size());
}

std::optional<crypto::Sha256Digest> derive_enrollment_key(
    const puf::ConfigurableEnrollment& enrollment) {
  // Zero errors against the enrollment-time response: Rep recovers the
  // enrolled key exactly, or the helper bytes were tampered with.
  return recover_key(enrollment.response(), enrollment);
}

std::optional<crypto::Sha256Digest> recover_key(
    const BitVec& noisy_response, const puf::ConfigurableEnrollment& enrollment) {
  const crypto::CyclicCode* code = code_for_id(enrollment.auth_code_id);
  if (code == nullptr || !helper_is_consistent(enrollment, *code)) {
    return std::nullopt;
  }
  if (noisy_response.size() < enrollment.auth_helper.size() * code->n()) {
    return std::nullopt;
  }
  const crypto::FuzzyExtractor extractor(code);
  const std::optional<crypto::Sha256Digest> key =
      extractor.reproduce(noisy_response, enrollment.auth_helper);
  if (!key.has_value()) return std::nullopt;
  // Noise past the radius can decode to a wrong codeword instead of failing,
  // and tampered helper bytes drift the key; the key check value catches
  // both.
  const crypto::Sha256Digest check = crypto::sha256(key->data(), key->size());
  if (!constant_time_equal(check.data(), enrollment.auth_key_check.data(),
                           check.size())) {
    return std::nullopt;
  }
  return key;
}

Tag prove(const crypto::Sha256Digest& key, const Nonce& nonce,
          std::uint64_t request_id, std::uint64_t device_id) {
  const std::array<std::uint8_t, 32> message =
      proof_message(nonce, request_id, device_id);
  return crypto::hmac_sha256(key.data(), key.size(), message.data(),
                             message.size());
}

bool verify_tag(const crypto::Sha256Digest& key, const Nonce& nonce,
                std::uint64_t request_id, std::uint64_t device_id,
                const Tag& tag) {
  const Tag expected = prove(key, nonce, request_id, device_id);
  return constant_time_equal(expected.data(), tag.data(), expected.size());
}

bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t size) {
  std::uint8_t acc = 0;
  for (std::size_t i = 0; i < size; ++i) {
    acc = static_cast<std::uint8_t>(acc | (a[i] ^ b[i]));
  }
  return acc == 0;
}

NonceFactory::NonceFactory(std::uint64_t seed) {
  std::array<std::uint8_t, 8> bytes{};
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i] = static_cast<std::uint8_t>((seed >> (8 * i)) & 0xff);
  }
  seed_key_ = crypto::sha256(bytes.data(), bytes.size());
}

Nonce NonceFactory::next(std::uint64_t device_id, std::uint64_t request_id) {
  const std::uint64_t count =
      counter_.fetch_add(1, std::memory_order_relaxed);
  std::array<std::uint8_t, 24> message{};
  for (std::size_t i = 0; i < 8; ++i) {
    message[i] = static_cast<std::uint8_t>((count >> (8 * i)) & 0xff);
    message[8 + i] = static_cast<std::uint8_t>((device_id >> (8 * i)) & 0xff);
    message[16 + i] = static_cast<std::uint8_t>((request_id >> (8 * i)) & 0xff);
  }
  const crypto::Sha256Digest digest = crypto::hmac_sha256(
      seed_key_.data(), seed_key_.size(), message.data(), message.size());
  Nonce nonce{};
  std::memcpy(nonce.data(), digest.data(), nonce.size());
  return nonce;
}

}  // namespace ropuf::auth

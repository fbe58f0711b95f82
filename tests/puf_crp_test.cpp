#include "puf/crp.h"

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <utility>

#include "common/error.h"
#include "common/rng.h"

namespace ropuf::puf {
namespace {

ConfigurableEnrollment sample_enrollment(std::uint64_t seed, std::size_t pairs = 16) {
  Rng rng(seed);
  const BoardLayout layout{5, pairs};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  return configurable_enroll(values, layout, SelectionCase::kIndependent);
}

/// The expansion computed the plain way — a full vector, the rejection
/// sampler by division, the backward shuffle, then truncated: the
/// reference ChallengeExpansion must match.
std::vector<std::size_t> divided_challenge_to_pairs(std::uint64_t challenge,
                                                    std::size_t pair_count,
                                                    std::size_t response_bits) {
  Rng rng(challenge);
  std::vector<std::size_t> order(pair_count);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = order.size(); i > 1; --i) {
    const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % i);
    std::uint64_t x;
    do {
      x = rng.next_u64();
    } while (x >= limit);
    std::swap(order[i - 1], order[static_cast<std::size_t>(x % i)]);
  }
  order.resize(response_bits);
  return order;
}

TEST(ChallengeToPairs, ExpansionsArePinned) {
  EXPECT_EQ(
      challenge_to_pairs(0x0123456789abcdefull, 16, 16),
      (std::vector<std::size_t>{11, 10, 6, 14, 5, 1, 2, 15, 4, 7, 9, 3, 0, 8, 12, 13}));
  EXPECT_EQ(challenge_to_pairs(0x2a, 16, 8),
            (std::vector<std::size_t>{14, 9, 7, 2, 3, 1, 10, 8}));
  EXPECT_EQ(challenge_to_pairs(0xfeedfacecafebeefull, 300, 20),
            (std::vector<std::size_t>{261, 255, 215, 210, 224, 28, 105, 191, 113, 40, 229,
                                      108, 289, 10, 256, 186, 152, 173, 23, 163}));
}

TEST(ChallengeToPairs, ExpansionAndGatherMatchTheDividedShuffle) {
  // Both sides of the stack bound and of every word boundary of the gather.
  Rng bits(0xb175);
  for (const std::size_t pairs : {1u, 2u, 16u, 63u, 64u, 65u, 256u, 257u, 1000u}) {
    BitVec enrolled(pairs);
    for (std::size_t p = 0; p < pairs; ++p) enrolled.set(p, bits.flip());
    const std::size_t lengths[] = {1, std::min<std::size_t>(pairs, 16),
                                   std::min<std::size_t>(pairs, 65), pairs};
    for (const std::size_t response_bits : lengths) {
      for (std::uint64_t challenge = 0; challenge < 40; ++challenge) {
        const std::uint64_t c = challenge * 0x9e3779b97f4a7c15ull;
        const std::vector<std::size_t> want =
            divided_challenge_to_pairs(c, pairs, response_bits);
        ASSERT_EQ(challenge_to_pairs(c, pairs, response_bits), want)
            << "pairs=" << pairs << " bits=" << response_bits;
        const ChallengeExpansion expansion(c, pairs, response_bits);
        ASSERT_EQ(expansion.size(), response_bits);
        BitVec claimed(response_bits);
        std::size_t distance = 0;
        for (std::size_t i = 0; i < response_bits; ++i) {
          ASSERT_EQ(expansion[i], want[i]);
          claimed.set(i, bits.flip());
          distance += claimed.get(i) != enrolled.get(want[i]);
        }
        ASSERT_EQ(reference_distance(c, enrolled, claimed), distance)
            << "pairs=" << pairs << " bits=" << response_bits;
      }
    }
  }
}

TEST(ChallengeToPairs, GatherMatchesTheOracleReference) {
  // The server's packed gather and CrpOracle's walk over Selections agree.
  for (const std::size_t pairs : {16u, 257u}) {
    const auto enrollment = sample_enrollment(7, pairs);
    const BitVec enrolled = enrollment.response();
    const CrpOracle oracle(&enrollment, 16);
    for (std::uint64_t challenge = 0; challenge < 64; ++challenge) {
      const BitVec reference = oracle.reference(challenge);
      EXPECT_EQ(reference_distance(challenge, enrolled, reference), 0u);
      BitVec flipped = reference;
      flipped.set(challenge % 16, !flipped.get(challenge % 16));
      EXPECT_EQ(reference_distance(challenge, enrolled, flipped), 1u);
    }
  }
}

TEST(ChallengeToPairs, DeterministicAndWithoutReplacement) {
  const auto a = challenge_to_pairs(0xdeadbeef, 32, 16);
  const auto b = challenge_to_pairs(0xdeadbeef, 32, 16);
  EXPECT_EQ(a, b);
  const std::set<std::size_t> unique(a.begin(), a.end());
  EXPECT_EQ(unique.size(), a.size());
  for (const std::size_t p : a) EXPECT_LT(p, 32u);
}

TEST(ChallengeToPairs, DifferentChallengesDiverge) {
  const auto a = challenge_to_pairs(1, 32, 16);
  const auto b = challenge_to_pairs(2, 32, 16);
  EXPECT_NE(a, b);
}

TEST(ChallengeToPairs, CoversAllPairsAcrossChallenges) {
  std::set<std::size_t> seen;
  for (std::uint64_t c = 0; c < 64; ++c) {
    for (const std::size_t p : challenge_to_pairs(c, 16, 4)) seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 16u);
}

TEST(ChallengeToPairs, RejectsBadLengths) {
  EXPECT_THROW(challenge_to_pairs(1, 0, 1), ropuf::Error);
  EXPECT_THROW(challenge_to_pairs(1, 8, 0), ropuf::Error);
  EXPECT_THROW(challenge_to_pairs(1, 8, 9), ropuf::Error);
  EXPECT_THROW(reference_distance(1, BitVec(8), BitVec(9)), ropuf::Error);
  EXPECT_THROW(reference_distance(1, BitVec(8), BitVec()), ropuf::Error);
}

TEST(CrpOracle, ReferenceMatchesEnrollmentBits) {
  const auto enrollment = sample_enrollment(1);
  const CrpOracle oracle(&enrollment, 8);
  const BitVec reference = oracle.reference(42);
  const auto pairs = challenge_to_pairs(42, enrollment.selections.size(), 8);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(reference.get(i), enrollment.selections[pairs[i]].bit);
  }
}

TEST(CrpOracle, RespondMatchesReferenceOnEnrollmentData) {
  // Re-measuring the exact enrollment values must reproduce the reference.
  Rng rng(2);
  const BoardLayout layout{5, 16};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  const auto enrollment = configurable_enroll(values, layout, SelectionCase::kIndependent);
  const CrpOracle oracle(&enrollment, 12);
  for (std::uint64_t challenge = 0; challenge < 20; ++challenge) {
    EXPECT_EQ(oracle.respond(challenge, values), oracle.reference(challenge));
  }
}

TEST(CrpOracle, SmallPerturbationKeepsResponsesStable) {
  Rng rng(3);
  const BoardLayout layout{7, 16};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  const auto enrollment = configurable_enroll(values, layout, SelectionCase::kIndependent);
  const CrpOracle oracle(&enrollment, 16);

  auto perturbed = values;
  for (auto& v : perturbed) v += rng.gaussian(0.0, 1.0);
  std::size_t flips = 0;
  for (std::uint64_t challenge = 0; challenge < 16; ++challenge) {
    flips += oracle.respond(challenge, perturbed)
                 .hamming_distance(oracle.reference(challenge));
  }
  EXPECT_LE(flips, 8u);  // 256 bits total; margins dwarf the noise
}

TEST(CrpOracle, DifferentChipsDisagreeOnChallenges) {
  const auto chip_a = sample_enrollment(10);
  const auto chip_b = sample_enrollment(11);
  const CrpOracle oracle_a(&chip_a, 16);
  const CrpOracle oracle_b(&chip_b, 16);
  std::size_t total_hd = 0;
  for (std::uint64_t challenge = 0; challenge < 32; ++challenge) {
    total_hd += oracle_a.reference(challenge).hamming_distance(
        oracle_b.reference(challenge));
  }
  // 512 compared bits, expect ~50%.
  EXPECT_GT(total_hd, 180u);
  EXPECT_LT(total_hd, 330u);
}

TEST(CrpOracle, RejectsDegenerateConstruction) {
  const auto enrollment = sample_enrollment(4);
  EXPECT_THROW(CrpOracle(nullptr, 4), ropuf::Error);
  EXPECT_THROW(CrpOracle(&enrollment, 0), ropuf::Error);
  EXPECT_THROW(CrpOracle(&enrollment, 17), ropuf::Error);
}

}  // namespace
}  // namespace ropuf::puf

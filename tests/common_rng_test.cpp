#include "common/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include <cstdint>
#include <vector>

namespace ropuf {
namespace {

TEST(Rng, IsDeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, UniformStaysInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.5, 2.25);
    EXPECT_GE(u, -3.5);
    EXPECT_LT(u, 2.25);
  }
}

TEST(Rng, UniformMeanIsNearOneHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

/// The rejection sampler computed by division, over the generator's own
/// stream: the reference uniform_below's table path must match.
std::uint64_t divided_uniform_below(Rng& rng, std::uint64_t n) {
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t x;
  do {
    x = rng.next_u64();
  } while (x >= limit);
  return x % n;
}

TEST(Rng, UniformBelowFirstDrawsArePinned) {
  // Values from the divided sampler; the table path must not move them.
  const auto first_six = [](std::uint64_t n) {
    Rng rng(42);
    std::vector<std::uint64_t> draws;
    for (int i = 0; i < 6; ++i) draws.push_back(rng.uniform_below(n));
    return draws;
  };
  EXPECT_EQ(first_six(16), (std::vector<std::uint64_t>{6, 14, 1, 1, 4, 8}));
  EXPECT_EQ(first_six(256), (std::vector<std::uint64_t>{22, 126, 161, 161, 100, 56}));
  EXPECT_EQ(first_six(257), (std::vector<std::uint64_t>{248, 57, 252, 87, 157, 51}));
  EXPECT_EQ(first_six(1000003),
            (std::vector<std::uint64_t>{188482, 382586, 173206, 314354, 42763, 52685}));
}

TEST(Rng, UniformBelowMatchesTheDividedSamplerForEveryDivisor) {
  // Every table divisor, the first ones past it, and two large ones.
  std::vector<std::uint64_t> divisors;
  for (std::uint64_t n = 1; n <= 300; ++n) divisors.push_back(n);
  divisors.push_back(std::uint64_t{1} << 24);
  divisors.push_back((std::uint64_t{1} << 63) + 1);
  for (const std::uint64_t n : divisors) {
    for (const std::uint64_t seed : {1ull, 0x5eedull, 0xfeedfacecafebeefull}) {
      Rng fast(seed), divided(seed);
      for (int i = 0; i < 200; ++i) {
        ASSERT_EQ(fast.uniform_below(n), divided_uniform_below(divided, n))
            << "n=" << n << " seed=" << seed << " draw " << i;
      }
      // Same number of raw draws consumed, so the streams stay in step.
      ASSERT_EQ(fast.next_u64(), divided.next_u64()) << "n=" << n;
    }
  }
}

TEST(Rng, UniformBelowCoversAllResidues) {
  Rng rng(13);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) ++counts[rng.uniform_below(10)];
  for (const int c : counts) EXPECT_GT(c, 800);  // ~1000 expected each
}

TEST(Rng, UniformBelowRejectsZero) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_below(0), Error);
}

TEST(Rng, GaussianMomentsMatchStandardNormal) {
  Rng rng(17);
  const int n = 200000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
}

TEST(Rng, GaussianScalesMeanAndSigma) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian(10.0, 2.0);
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, GaussianRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.gaussian(0.0, -1.0), Error);
}

TEST(Rng, FlipIsRoughlyFair) {
  Rng rng(23);
  int heads = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.flip()) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.5, 0.01);
}

TEST(Rng, ForkedStreamsAreIndependentButDeterministic) {
  Rng parent1(31), parent2(31);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
  // Child differs from a fresh parent stream.
  Rng parent3(31);
  Rng child3 = parent3.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (child3.next_u64() == parent3.next_u64()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, ShufflePreservesMultiset) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(41);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto original = v;
  rng.shuffle(v);
  EXPECT_NE(v, original);
}

TEST(SplitMix64, ProducesKnownGoodDispersion) {
  // Consecutive outputs should differ in roughly half their bits.
  std::uint64_t s = 0;
  std::uint64_t prev = splitmix64(s);
  double total_flips = 0;
  const int n = 1000;
  for (int i = 0; i < n; ++i) {
    const std::uint64_t cur = splitmix64(s);
    total_flips += static_cast<double>(__builtin_popcountll(prev ^ cur));
    prev = cur;
  }
  EXPECT_NEAR(total_flips / n, 32.0, 2.0);
}

}  // namespace
}  // namespace ropuf

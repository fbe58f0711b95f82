// Deterministic random number generation.
//
// All stochastic behaviour in the library (process variation, measurement
// noise, workload generation) flows through ropuf::Rng so that every
// experiment is exactly reproducible from a 64-bit seed. The generator is
// xoshiro256** seeded via SplitMix64; Gaussian variates use the polar
// (Marsaglia) method. We deliberately avoid std::normal_distribution and
// friends because their output is not specified across standard-library
// implementations.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace ropuf {

/// SplitMix64 step; used for seed expansion and as a cheap stand-alone mixer.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace detail {

__extension__ using U128 = unsigned __int128;

/// uniform_below's divisors up to this bound come from kDivisors.
inline constexpr std::uint64_t kTableDivisors = 256;

struct Divisor {
  /// M = ceil(2^128 / n), which wraps to 0 for n = 1 (and 0 is then the
  /// right multiplier: every remainder mod 1 is 0).
  U128 reciprocal = 0;
  /// Draws at or above this bound are rejected: 2^64 - 1 minus
  /// (2^64 - 1) mod n, as uniform_below computes it for larger n.
  std::uint64_t limit = 0;
};

/// Entry n for n in [1, kTableDivisors]; built at compile time in rng.cpp.
extern const std::array<Divisor, kTableDivisors + 1> kDivisors;

/// x mod n without dividing, from M = ceil(2^128 / n): the low 128 bits of
/// M * x are the fraction x / n scaled by 2^128, and the top 64 bits of
/// that fraction times n are the remainder. Lemire, Kaser and Kurz,
/// "Faster Remainder by Direct Computation" (2019), prove it exact for
/// every 64-bit x and n.
inline std::uint64_t fastmod(std::uint64_t x, U128 reciprocal, std::uint64_t n) {
  const U128 fraction = reciprocal * x;
  const U128 low = (U128{static_cast<std::uint64_t>(fraction)} * n) >> 64;
  const U128 high = U128{static_cast<std::uint64_t>(fraction >> 64)} * n;
  return static_cast<std::uint64_t>((low + high) >> 64);
}

/// uniform_below's rejection bound for n past the table, by division.
/// Throws for n == 0.
std::uint64_t rejection_limit(std::uint64_t n);

inline std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace detail

/// Deterministic pseudo-random generator (xoshiro256**).
class Rng {
 public:
  /// Seeds the four 64-bit words of state from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = detail::rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = detail::rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n); n must be positive. Rejection sampling
  /// over next_u64() removes the modulo bias. n up to 256 (every step of a
  /// challenge expansion over at most 256 pairs) takes its rejection bound
  /// and its remainder from a precomputed table without dividing; the
  /// value drawn is the same as the plain `%` computation for every n.
  /// Inline, so a shuffle's draws compile into its loop.
  std::uint64_t uniform_below(std::uint64_t n) {
    const bool tabled = n - 1 < detail::kTableDivisors;  // false for n == 0
    const detail::Divisor* divisor =
        tabled ? &detail::kDivisors[static_cast<std::size_t>(n)] : nullptr;
    const std::uint64_t limit = tabled ? divisor->limit : detail::rejection_limit(n);
    std::uint64_t x;
    do {
      x = next_u64();
    } while (x >= limit);
    return tabled ? detail::fastmod(x, divisor->reciprocal, n) : x % n;
  }

  /// Standard normal variate (mean 0, variance 1), polar method.
  double gaussian();

  /// Normal variate with the given mean and standard deviation.
  double gaussian(double mean, double sigma);

  /// Fair coin flip.
  bool flip();

  /// Derives an independent child generator; used to give each board /
  /// experiment its own stream without coupling their consumption patterns.
  Rng fork();

  /// Fisher-Yates shuffle (backward: position i - 1 swaps with a uniform
  /// j in [0, i) for i = size down to 2). The library's one shuffle.
  template <typename T>
  void shuffle(std::span<T> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_below(i));
      std::swap(v[i - 1], v[j]);
    }
  }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    shuffle(std::span<T>(v));
  }

 private:
  std::array<std::uint64_t, 4> state_;
  double cached_gaussian_ = 0.0;
  bool has_cached_gaussian_ = false;
};

}  // namespace ropuf

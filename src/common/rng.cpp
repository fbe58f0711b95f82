#include "common/rng.h"

#include <cmath>

#include "common/error.h"

namespace ropuf {
namespace detail {

namespace {

constexpr std::array<Divisor, kTableDivisors + 1> make_divisors() {
  std::array<Divisor, kTableDivisors + 1> table{};
  for (std::uint64_t n = 1; n <= kTableDivisors; ++n) {
    table[n].reciprocal = ~U128{0} / n + 1;
    table[n].limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  }
  return table;
}

}  // namespace

constexpr std::array<Divisor, kTableDivisors + 1> kDivisors = make_divisors();

std::uint64_t rejection_limit(std::uint64_t n) {
  ROPUF_REQUIRE(n > 0, "uniform_below(0)");
  return ~std::uint64_t{0} - (~std::uint64_t{0} % n);
}

}  // namespace detail

double Rng::uniform() {
  // Top 53 bits -> [0, 1) double.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  ROPUF_REQUIRE(lo <= hi, "empty uniform range");
  return lo + (hi - lo) * uniform();
}

double Rng::gaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Marsaglia polar method.
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  cached_gaussian_ = v * factor;
  has_cached_gaussian_ = true;
  return u * factor;
}

double Rng::gaussian(double mean, double sigma) {
  ROPUF_REQUIRE(sigma >= 0.0, "negative sigma");
  return mean + sigma * gaussian();
}

bool Rng::flip() { return (next_u64() >> 63) != 0; }

Rng Rng::fork() { return Rng(next_u64()); }

}  // namespace ropuf

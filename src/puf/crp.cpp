#include "puf/crp.h"

#include <limits>
#include <numeric>
#include <span>

#include "common/error.h"
#include "common/hamming.h"
#include "common/rng.h"
#include "puf/selection.h"

namespace ropuf::puf {

ChallengeExpansion::ChallengeExpansion(std::uint64_t challenge, std::size_t pair_count,
                                       std::size_t response_bits)
    : size_(response_bits) {
  ROPUF_REQUIRE(pair_count > 0, "no enrolled pairs");
  ROPUF_REQUIRE(response_bits >= 1 && response_bits <= pair_count,
                "response length must be 1..pair_count");
  ROPUF_REQUIRE(pair_count <= std::numeric_limits<std::uint32_t>::max(),
                "pair count exceeds the expansion's 32-bit indices");
  std::span<std::uint32_t> order;
  if (pair_count <= stack_.size()) {
    order = std::span<std::uint32_t>(stack_.data(), pair_count);
  } else {
    heap_.resize(pair_count);
    order = heap_;
  }
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  // Every draw counts even when only a prefix is read: the backward
  // shuffle fixes position i - 1 at step i, so the prefix is final last.
  Rng rng(challenge);
  rng.shuffle(order);
  pairs_ = order.data();
}

std::vector<std::size_t> challenge_to_pairs(std::uint64_t challenge,
                                            std::size_t pair_count,
                                            std::size_t response_bits) {
  const ChallengeExpansion pairs(challenge, pair_count, response_bits);
  std::vector<std::size_t> order(pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) order[i] = pairs[i];
  return order;
}

std::size_t reference_distance(std::uint64_t challenge, const BitVec& enrolled,
                               const BitVec& claimed) {
  const ChallengeExpansion pairs(challenge, enrolled.size(), claimed.size());
  const std::span<const std::uint64_t> from = enrolled.words();
  const std::span<const std::uint64_t> against = claimed.words();
  std::array<std::uint64_t, kStackExpansionPairs / 64> stack{};
  std::vector<std::uint64_t> heap;
  std::uint64_t* reference = stack.data();
  if (against.size() > stack.size()) {
    heap.resize(against.size());
    reference = heap.data();
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const std::size_t p = pairs[i];
    reference[i / 64] |= ((from[p / 64] >> (p % 64)) & 1u) << (i % 64);
  }
  return static_cast<std::size_t>(
      hamming_distance_words(reference, against.data(), against.size()));
}

CrpOracle::CrpOracle(const ConfigurableEnrollment* enrollment, std::size_t response_bits)
    : enrollment_(enrollment), response_bits_(response_bits) {
  ROPUF_REQUIRE(enrollment_ != nullptr, "null enrollment");
  ROPUF_REQUIRE(!enrollment_->selections.empty(), "enrollment has no pairs");
  ROPUF_REQUIRE(response_bits_ >= 1 && response_bits_ <= enrollment_->selections.size(),
                "response length must be 1..pair_count");
}

BitVec CrpOracle::respond(std::uint64_t challenge,
                          const std::vector<double>& unit_values) const {
  const ChallengeExpansion pairs(challenge, enrollment_->selections.size(), response_bits_);
  BitVec response(response_bits_);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Selection& sel = enrollment_->selections[pairs[i]];
    const PairValues pv = pair_values(unit_values, enrollment_->layout, pairs[i]);
    const double margin =
        configured_margin(sel.top_config, sel.bottom_config, pv.top, pv.bottom);
    response.set(i, margin > 0.0);
  }
  return response;
}

BitVec CrpOracle::reference(std::uint64_t challenge) const {
  const ChallengeExpansion pairs(challenge, enrollment_->selections.size(), response_bits_);
  BitVec response(response_bits_);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    response.set(i, enrollment_->selections[pairs[i]].bit);
  }
  return response;
}

}  // namespace ropuf::puf

// Challenge-response interface over a board of configurable RO pairs.
//
// Secret-key generation uses a PUF's fixed response; authentication (the
// paper's other headline application) wants many challenge-response pairs.
// For RO PUFs the standard construction lets the challenge choose *which*
// ROs are compared: here a 64-bit challenge seeds a deterministic
// permutation of the board's RO pairs and selects a subset of them, so each
// challenge yields a different response bit-string from the same enrolled
// silicon while every bit still comes from a margin-maximized comparison.
//
// Notes on the threat model: unlike the FPGA-reconfiguration approaches the
// paper criticizes (Section II), the *configurations are fixed at
// enrollment* — the challenge only permutes which enrolled pairs are read,
// so the modeling surface does not grow with the CRP count.
//
// ChallengeExpansion is the one expansion: challenge_to_pairs, CrpOracle
// and the verifier's reference_distance all read it, so enroller, oracle
// and server cannot disagree about which pair supplies which bit.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitvec.h"
#include "puf/schemes.h"

namespace ropuf::puf {

/// Pair counts up to this expand in a stack array; larger boards (pair
/// counts go up to 2^24) expand on the heap.
inline constexpr std::size_t kStackExpansionPairs = 256;

/// The enrolled pairs a challenge selects, in response-bit order: a
/// backward Fisher-Yates over [0, pair_count) keyed by the challenge (the
/// library Rng, so enroller and verifier agree), truncated to
/// response_bits. `(*this)[i]` is the pair supplying response bit i.
/// Allocation-free for pair_count <= kStackExpansionPairs.
class ChallengeExpansion {
 public:
  ChallengeExpansion(std::uint64_t challenge, std::size_t pair_count,
                     std::size_t response_bits);
  ChallengeExpansion(const ChallengeExpansion&) = delete;
  ChallengeExpansion& operator=(const ChallengeExpansion&) = delete;

  std::size_t size() const { return size_; }
  std::size_t operator[](std::size_t i) const { return pairs_[i]; }

 private:
  std::array<std::uint32_t, kStackExpansionPairs> stack_;
  std::vector<std::uint32_t> heap_;
  const std::uint32_t* pairs_ = nullptr;
  std::size_t size_ = 0;
};

/// Deterministic pair subset derived from a challenge: `indices[i]` is the
/// enrolled pair supplying response bit i.
std::vector<std::size_t> challenge_to_pairs(std::uint64_t challenge,
                                            std::size_t pair_count,
                                            std::size_t response_bits);

/// Hamming distance between `claimed` and the reference response the
/// challenge selects from `enrolled` (bit p = pair p's enrolled bit, as
/// ConfigurableEnrollment::response() packs it): the verifier's comparison.
/// The reference has claimed.size() bits, bit i = enrolled bit
/// ChallengeExpansion[i] — what CrpOracle::reference returns — gathered
/// straight into words. Allocation-free while claimed.size() <=
/// kStackExpansionPairs and enrolled.size() <= kStackExpansionPairs.
std::size_t reference_distance(std::uint64_t challenge, const BitVec& enrolled,
                               const BitVec& claimed);

/// A challenge-response evaluator bound to one board's enrollment.
class CrpOracle {
 public:
  /// `enrollment` must outlive the oracle. `response_bits` must not exceed
  /// the enrolled pair count (bits are drawn without replacement).
  CrpOracle(const ConfigurableEnrollment* enrollment, std::size_t response_bits);

  std::size_t response_bits() const { return response_bits_; }

  /// Response to `challenge` computed from fresh unit measurements.
  BitVec respond(std::uint64_t challenge, const std::vector<double>& unit_values) const;

  /// The reference response from the enrollment-time bits (what a verifier
  /// database stores per challenge).
  BitVec reference(std::uint64_t challenge) const;

 private:
  const ConfigurableEnrollment* enrollment_;
  std::size_t response_bits_;
};

}  // namespace ropuf::puf

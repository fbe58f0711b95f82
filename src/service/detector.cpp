#include "service/detector.h"

#include <algorithm>

#include "common/error.h"

namespace ropuf::service {
namespace {

/// Observations per device the signatures count over (the newest ones).
constexpr std::size_t kWindow = 32;
/// Accumulated score that bumps the escalation ladder one level.
constexpr std::uint32_t kEscalateThreshold = 8;
/// Clean observations per decay step (halve the score; at 0, step down).
constexpr std::uint64_t kDecayWindow = 64;
/// Same-challenge asks tolerated inside the window before the repeat
/// signature fires: a legitimate prover retries a challenge at most once
/// or twice, while the oracle asks it bits+1 times.
constexpr std::size_t kRepeatTolerance = 2;
/// Non-accepted popcount<=1 guesses inside the window before the
/// single-bit signature fires. A real b-bit response has expected weight
/// b/2, and the rare genuine device whose reference sits near all-zeros
/// gets *accepted* for its low-weight responses, so legit traffic never
/// contributes, while oracle probes (rejected or denied) always do.
constexpr std::size_t kLowWeightRun = 4;
/// Same-challenge baseline/probe distance-step chain length before the
/// staircase signature fires.
constexpr std::size_t kStaircaseRun = 3;
/// Score added per flagged signature, per observation.
constexpr std::uint32_t kRepeatScore = 2;
constexpr std::uint32_t kLowWeightScore = 1;
constexpr std::uint32_t kStaircaseScore = 3;

/// Escalation-level buckets: the ladder is short, so one bucket per level.
const std::vector<double>& level_bounds() {
  static const std::vector<double> bounds = {1, 2, 3, 4, 5, 6, 7, 8};
  return bounds;
}

}  // namespace

StreamDetector::StreamDetector(DetectorOptions options, std::size_t device_capacity)
    : options_(options), device_capacity_(device_capacity) {
  ROPUF_REQUIRE(!options_.enabled || device_capacity_ > 0,
                "device_capacity must be positive when the detector is enabled");
  obs::Registry& registry = obs::Registry::instance();
  observations_ = &registry.counter("service.detector.observations");
  repeat_flags_ = &registry.counter("service.detector.repeat_flags");
  low_weight_flags_ = &registry.counter("service.detector.low_weight_flags");
  staircase_flags_ = &registry.counter("service.detector.staircase_flags");
  escalations_ = &registry.counter("service.detector.escalations");
  deescalations_ = &registry.counter("service.detector.deescalations");
  evictions_ = &registry.counter("service.detector.evictions");
  escalated_level_ =
      &registry.histogram("service.detector.escalated_level", level_bounds());
}

AdmissionPenalty StreamDetector::penalty_for_level(std::uint32_t level) {
  AdmissionPenalty penalty;
  penalty.interval_factor =
      level >= 64 ? ~0ull : (1ull << level);
  penalty.reuse_shift = level;
  return penalty;
}

StreamDetector::DeviceState& StreamDetector::state_for(std::uint64_t device_id) {
  const auto it = index_.find(device_id);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }
  if (lru_.size() >= device_capacity_) {
    // Evicting forgets the victim's suspicion — the standard bounded-sketch
    // trade-off, and why device_capacity defaults fleet-sized.
    index_.erase(lru_.back().device_id);
    lru_.pop_back();
    evictions_->add(1);
  }
  DeviceState state;
  state.device_id = device_id;
  lru_.push_front(std::move(state));
  index_[device_id] = lru_.begin();
  return lru_.front();
}

void StreamDetector::observe(std::uint64_t device_id,
                             const StreamObservation& observation) {
  if (!options_.enabled) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  observations_->add(1);
  DeviceState& state = state_for(device_id);

  // Slide the window first, so every signature sees the newest observation.
  const WindowEntry newest{observation.challenge, observation.guess_weight,
                           observation.accepted};
  if (state.window.size() < kWindow) {
    state.window.push_back(newest);
  } else {
    state.window[state.window_next] = newest;
    state.window_next = (state.window_next + 1) % kWindow;
  }

  // Repeat-probe signature: the same challenge asked more than a plausible
  // retry count of times inside the window. Counted over the whole window
  // (not consecutively) so decoy interleaving cannot wash it out.
  std::size_t same_challenge = 0;
  std::size_t low_weight = 0;
  for (const WindowEntry& entry : state.window) {
    if (entry.challenge == observation.challenge) ++same_challenge;
    if (entry.weight <= 1 && !entry.accepted) ++low_weight;
  }
  const bool repeat_flag = same_challenge > kRepeatTolerance;

  // Single-bit-guess signature: a run of non-accepted popcount<=1 claimed
  // responses. A genuine response carries ~b/2 set bits, and the rare
  // device whose reference really is near-zero gets *accepted* for its
  // low-weight responses — so these only come from oracle probing (or a
  // broken prover, which the decay path forgives).
  const bool low_weight_flag = low_weight >= kLowWeightRun;

  // Distance-staircase signature: answered weight-1 probes stepping exactly
  // +/-1 off the answered weight-0 baseline of the *same* challenge — the
  // bit-recovery arithmetic itself. The baseline is keyed to its challenge
  // and survives unrelated observations, so interleaved decoys don't reset
  // the chain.
  bool staircase_flag = false;
  if (observation.answered) {
    if (observation.guess_weight == 0) {
      state.baseline_valid = true;
      state.baseline_challenge = observation.challenge;
      state.baseline_distance = observation.distance;
      state.staircase_length = 0;
    } else if (observation.guess_weight == 1 && state.baseline_valid &&
               observation.challenge == state.baseline_challenge &&
               (observation.distance + 1 == state.baseline_distance ||
                observation.distance == state.baseline_distance + 1)) {
      ++state.staircase_length;
      staircase_flag = state.staircase_length >= kStaircaseRun;
    }
  }

  std::uint32_t delta = 0;
  if (repeat_flag) {
    delta += kRepeatScore;
    repeat_flags_->add(1);
  }
  if (low_weight_flag) {
    delta += kLowWeightScore;
    low_weight_flags_->add(1);
  }
  if (staircase_flag) {
    delta += kStaircaseScore;
    staircase_flags_->add(1);
  }

  if (delta == 0) {
    // Clean observation: decay. Every kDecayWindow clean observations halve
    // the score; once it reaches zero the ladder steps back down, so a
    // false positive costs a bounded slowdown, never a permanent ban.
    ++state.clean_streak;
    if (state.clean_streak >= kDecayWindow) {
      state.clean_streak = 0;
      if (state.score > 0) {
        state.score /= 2;
      } else if (state.level > 0) {
        --state.level;
        deescalations_->add(1);
      }
    }
    return;
  }

  state.clean_streak = 0;
  state.score += delta;
  if (state.score >= kEscalateThreshold) {
    state.score = 0;
    if (state.level < kMaxLevel) {
      ++state.level;
      escalations_->add(1);
      escalated_level_->record(static_cast<double>(state.level));
    }
  }
}

std::uint32_t StreamDetector::level(std::uint64_t device_id) const {
  if (!options_.enabled) return 0;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(device_id);
  // A read never promotes in the LRU: penalty lookups on the admission
  // pre-pass must not keep an otherwise-idle device resident.
  return it == index_.end() ? 0 : it->second->level;
}

AdmissionPenalty StreamDetector::penalty(std::uint64_t device_id) const {
  return penalty_for_level(level(device_id));
}

std::size_t StreamDetector::tracked_devices() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

}  // namespace ropuf::service

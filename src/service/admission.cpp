#include "service/admission.h"

#include <algorithm>
#include <limits>

#include "common/error.h"

namespace ropuf::service {
namespace {

/// Seen-challenge ring entries per device: what tells a repeat from fresh.
constexpr std::size_t kChallengeSketch = 64;

/// Per-device deny-count buckets: powers of two up to "clearly abusive".
const std::vector<double>& deny_bounds() {
  static const std::vector<double> bounds = {1,   2,   4,   8,    16,   32,
                                             64,  128, 256, 512,  1024, 4096};
  return bounds;
}

}  // namespace

std::uint64_t saturating_mul_u64(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  if (a > std::numeric_limits<std::uint64_t>::max() / b) {
    return std::numeric_limits<std::uint64_t>::max();
  }
  return a * b;
}

RefillResult refill_tokens(std::uint64_t tokens, std::uint64_t last_refill_tick,
                           std::uint64_t now_tick, std::uint64_t burst,
                           std::uint64_t interval) {
  if (interval == 0) return RefillResult{tokens, last_refill_tick};
  const std::uint64_t elapsed = now_tick - last_refill_tick;
  const std::uint64_t earned = elapsed / interval;
  if (earned == 0) return RefillResult{tokens, last_refill_tick};
  // `tokens + earned >= burst` rearranged so it cannot wrap: earned can be
  // close to 2^64 when a device re-appears after an enormous tick gap (the
  // naive sum wraps and the bucket refills to almost nothing).
  if (earned >= burst || tokens >= burst - earned) {
    // A full bucket restarts the refill clock: unspent surplus must not
    // bank up beyond the burst.
    return RefillResult{burst, now_tick};
  }
  // Partial refill: tokens + earned < burst, so the sum fits; and
  // earned * interval <= elapsed by integer division, so the tick advance
  // stays behind now_tick and cannot wrap either.
  return RefillResult{tokens + earned, last_refill_tick + earned * interval};
}

AdmissionController::AdmissionController(AdmissionOptions options)
    : options_(options) {
  ROPUF_REQUIRE((options_.rate_burst > 0) == (options_.rate_interval > 0),
                "rate_burst and rate_interval enable rate limiting together "
                "(both zero or both positive)");
  ROPUF_REQUIRE(!options_.enabled() || options_.device_capacity > 0,
                "device_capacity must be positive when admission is enabled");
  obs::Registry& registry = obs::Registry::instance();
  admitted_ = &registry.counter("service.admitted");
  rate_limited_ = &registry.counter("service.rate_limited");
  budget_exhausted_ = &registry.counter("service.budget_exhausted");
  evictions_ = &registry.counter("service.admission_evictions");
  denies_per_device_ =
      &registry.histogram("service.admission_denies_per_device", deny_bounds());
}

void AdmissionController::refill(DeviceState& state, std::uint64_t interval) const {
  const RefillResult refilled = refill_tokens(
      state.tokens, state.last_refill_tick, tick_, options_.rate_burst, interval);
  state.tokens = refilled.tokens;
  state.last_refill_tick = refilled.last_refill_tick;
}

bool AdmissionController::sketch_contains(const DeviceState& state,
                                          std::uint64_t challenge) const {
  return std::find(state.sketch.begin(), state.sketch.end(), challenge) !=
         state.sketch.end();
}

void AdmissionController::sketch_insert(DeviceState& state, std::uint64_t challenge) {
  if (state.sketch.size() < kChallengeSketch) {
    state.sketch.push_back(challenge);
    return;
  }
  // Ring replacement: the oldest entry is forgotten, so a far-past
  // challenge re-presented later counts as fresh again (charging the
  // distinct budget once more — the safe direction).
  state.sketch[state.sketch_next] = challenge;
  state.sketch_next = (state.sketch_next + 1) % kChallengeSketch;
}

void AdmissionController::record_denies(DeviceState& state) {
  // Delta since the previous flush only: a run that flushes at checkpoints,
  // flushes again at shutdown, and then evicts the state must count each
  // deny exactly once across all three.
  const std::uint64_t delta = state.denied - state.denied_flushed;
  if (delta > 0) {
    denies_per_device_->record(static_cast<double>(delta));
    state.denied_flushed = state.denied;
  }
}

AdmissionController::DeviceState& AdmissionController::state_for(
    std::uint64_t device_id) {
  const auto it = index_.find(device_id);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return *it->second;
  }
  if (lru_.size() >= options_.device_capacity) {
    DeviceState& victim = lru_.back();
    record_denies(victim);
    index_.erase(victim.device_id);
    lru_.pop_back();
    evictions_->add(1);
  }
  DeviceState state;
  state.device_id = device_id;
  state.tokens = options_.rate_burst;
  state.last_refill_tick = tick_;
  lru_.push_front(std::move(state));
  index_[device_id] = lru_.begin();
  return lru_.front();
}

Admission AdmissionController::admit(std::uint64_t device_id, std::uint64_t challenge,
                                     const AdmissionPenalty& penalty) {
  if (!options_.enabled()) {
    admitted_->add(1);
    return Admission::kAdmit;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++tick_;
  DeviceState& state = state_for(device_id);

  // Rate first: an empty bucket denies before any budget state is touched,
  // so a flood cannot burn the device's budgets or churn its sketch.
  if (options_.rate_interval > 0) {
    // The penalty stretches this device's refill interval (saturating: a
    // deep ladder level freezes refills rather than wrapping to fast ones).
    refill(state, saturating_mul_u64(options_.rate_interval, penalty.interval_factor));
    if (state.tokens == 0) {
      ++state.denied;
      rate_limited_->add(1);
      return Admission::kRateLimited;
    }
  }

  const bool repeat = sketch_contains(state, challenge);
  if (repeat) {
    // The penalty halves the configured reuse budget per ladder level. A
    // budget shrunk to zero denies every repeat; only the *static* knob at
    // zero means the check is off.
    const std::uint64_t effective_reuse =
        penalty.reuse_shift >= 64 ? 0 : options_.reuse_budget >> penalty.reuse_shift;
    if (options_.reuse_budget > 0 && state.reuse_used >= effective_reuse) {
      ++state.denied;
      budget_exhausted_->add(1);
      return Admission::kBudgetExhausted;
    }
    ++state.reuse_used;
  } else {
    if (options_.crp_budget > 0 && state.distinct_used >= options_.crp_budget) {
      ++state.denied;
      budget_exhausted_->add(1);
      return Admission::kBudgetExhausted;
    }
    ++state.distinct_used;
    sketch_insert(state, challenge);
  }

  if (options_.rate_interval > 0) --state.tokens;
  admitted_->add(1);
  return Admission::kAdmit;
}

void AdmissionController::flush_metrics() {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (DeviceState& state : lru_) record_denies(state);
}

std::size_t AdmissionController::tracked_devices() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::uint64_t AdmissionController::ticks() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return tick_;
}

}  // namespace ropuf::service

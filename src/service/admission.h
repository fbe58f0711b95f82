// Per-device admission control for the CRP authentication service.
//
// PR 5 hardened the serving layer against *dumb* abuse (flooding, cache
// spray, fd exhaustion); this layer defends against *smart* abuse. A freely
// queryable CRP interface leaks statistics an attacker can model the device
// from ("Statistic-Based Security Analysis of Ring Oscillator PUFs"), and
// the verdict's Hamming distance is an outright oracle: probing one
// challenge with single-bit guesses recovers the reference bits one query
// at a time. Two deterministic per-device defenses bound that leakage:
//
//  * Token-bucket rate limiting. Each device owns a bucket of
//    `rate_burst` tokens refilled one token per `rate_interval` ticks of
//    the admission clock. The clock is *logical*: it advances once per
//    request the controller sees, never off the wall clock, so the same
//    arrival sequence always produces the same admit/deny sequence — the
//    property every digest-parity test in this repo is built on. Logical
//    time also makes the limiter a fair-share scheme: under an attack
//    flood the clock races ahead, so legitimate devices refill *faster*
//    relative to the abuser.
//
//  * CRP-reuse/exhaustion budgets. A bounded per-device sketch of the 64
//    most recently seen challenges splits traffic into *fresh* challenges
//    (consume the `crp_budget` of distinct challenges the device may ever
//    be asked — the modeling surface) and *repeats* (consume the much
//    smaller `reuse_budget` — repeats are how the distance oracle is
//    mined, and a legitimate prover re-asks a challenge only on a bounded
//    retry). Either budget spent answers kBudgetExhausted.
//
// Per-device state lives in a capacity-bounded LRU (an attacker spraying
// device ids must not grow server memory); evicting a state forgets its
// budgets, which is the standard sketch trade-off and is why the capacity
// default is fleet-sized. All checks are O(sketch) with no allocation on
// the admit path beyond first contact with a device.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace ropuf::service {

/// Admission knobs. Everything defaults to off (0), so a default-constructed
/// service admits every request and behaves exactly like the pre-admission
/// service. Rate limiting needs both rate_burst and rate_interval > 0.
struct AdmissionOptions {
  /// Token bucket capacity in requests; 0 disables rate limiting.
  std::uint64_t rate_burst = 0;
  /// Admission-clock ticks (requests observed, any device) per refilled
  /// token; 0 disables rate limiting.
  std::uint64_t rate_interval = 0;
  /// Max *distinct* challenges a device may ever be asked; 0 disables.
  std::uint64_t crp_budget = 0;
  /// Max repeated-challenge queries per device; 0 disables the reuse check.
  std::uint64_t reuse_budget = 0;
  /// Bound on tracked per-device states (LRU eviction past it); the service
  /// bounds each slice's stream detector by the same share.
  std::size_t device_capacity = 4096;

  /// True when any check is configured; an all-off controller admits
  /// everything without touching per-device state.
  bool enabled() const {
    return (rate_burst > 0 && rate_interval > 0) || crp_budget > 0 ||
           reuse_budget > 0;
  }
};

/// What admission decided for one request, in check order: rate first
/// (cheapest, protects everything behind it), budgets second.
enum class Admission {
  kAdmit,
  kRateLimited,      ///< token bucket empty — retry later
  kBudgetExhausted,  ///< distinct-challenge or reuse budget spent
};

/// A per-device penalty the stream detector (service/detector.h) escalates
/// onto suspicious devices. Neutral (the default) reproduces the static
/// admission decision exactly; a penalized device refills `interval_factor`
/// times slower and keeps only `reuse_budget >> reuse_shift` of its repeat
/// budget. Both act per decision, so a decayed penalty restores the static
/// knobs without touching stored state.
struct AdmissionPenalty {
  /// Multiplies the effective rate_interval (saturating — an absurd ladder
  /// level must freeze refills, not wrap into a fast one).
  std::uint64_t interval_factor = 1;
  /// Right-shift applied to reuse_budget. Shrinking a *configured* budget
  /// to zero denies every repeat (it does not disable the check: 0 means
  /// "off" only for the static knob, never for a penalty).
  std::uint32_t reuse_shift = 0;

  bool neutral() const { return interval_factor <= 1 && reuse_shift == 0; }
};

/// a*b clamped to the uint64 range instead of wrapping.
std::uint64_t saturating_mul_u64(std::uint64_t a, std::uint64_t b);

/// The token-bucket refill arithmetic, exposed as a pure function so the
/// overflow edges are unit-testable at near-max clock values (driving the
/// controller's logical clock there would take 2^64 admit() calls).
/// Guards two uint64 overflows a naive implementation hits when a device
/// re-appears after an enormous tick gap: `tokens + earned` (earned can be
/// ~2^64 at interval 1) and the `earned * interval` tick advance.
struct RefillResult {
  std::uint64_t tokens = 0;
  std::uint64_t last_refill_tick = 0;
};
RefillResult refill_tokens(std::uint64_t tokens, std::uint64_t last_refill_tick,
                           std::uint64_t now_tick, std::uint64_t burst,
                           std::uint64_t interval);

/// Deterministic per-device admission state machine. admit() must be called
/// in request arrival order (the service's serial pre-pass does); calls are
/// mutex-serialized so concurrent batches stay safe, but determinism is a
/// property of the *call order*, not the lock.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions options);

  /// Decides one request and advances the admission clock by one tick.
  Admission admit(std::uint64_t device_id, std::uint64_t challenge) {
    return admit(device_id, challenge, AdmissionPenalty{});
  }

  /// Penalty-aware form: the detector's escalation ladder tightens this
  /// one device's effective knobs for this one decision. A neutral penalty
  /// is byte-identical to the two-argument overload.
  Admission admit(std::uint64_t device_id, std::uint64_t challenge,
                  const AdmissionPenalty& penalty);

  /// Records the per-device deny-count histogram *delta* accumulated since
  /// the previous flush for every still-tracked device (evicted devices
  /// record their pending delta at eviction time). Safe to call repeatedly
  /// — checkpoint flushes, a shutdown flush and a later eviction together
  /// record each deny exactly once. The counters are live continuously.
  void flush_metrics();

  /// Devices currently tracked (bounded by device_capacity).
  std::size_t tracked_devices() const;
  /// Requests observed (the admission clock).
  std::uint64_t ticks() const;

  const AdmissionOptions& options() const { return options_; }

 private:
  struct DeviceState {
    std::uint64_t device_id = 0;
    std::uint64_t tokens = 0;
    std::uint64_t last_refill_tick = 0;
    std::uint64_t distinct_used = 0;
    std::uint64_t reuse_used = 0;
    std::uint64_t denied = 0;
    /// Denies already recorded into the histogram; record_denies() emits
    /// only `denied - denied_flushed`, so repeated flushes never re-count.
    std::uint64_t denied_flushed = 0;
    /// Ring of recently seen challenges; eviction re-classifies an old
    /// challenge as fresh, which *charges the attacker again* — safe-side.
    std::vector<std::uint64_t> sketch;
    std::size_t sketch_next = 0;
  };

  DeviceState& state_for(std::uint64_t device_id);
  void refill(DeviceState& state, std::uint64_t interval) const;
  bool sketch_contains(const DeviceState& state, std::uint64_t challenge) const;
  void sketch_insert(DeviceState& state, std::uint64_t challenge);
  void record_denies(DeviceState& state);

  AdmissionOptions options_;
  mutable std::mutex mutex_;
  std::uint64_t tick_ = 0;
  std::list<DeviceState> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<DeviceState>::iterator> index_;
  obs::Counter* admitted_ = nullptr;
  obs::Counter* rate_limited_ = nullptr;
  obs::Counter* budget_exhausted_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Histogram* denies_per_device_ = nullptr;
};

}  // namespace ropuf::service

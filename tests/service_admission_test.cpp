// Tests for the per-device admission controller: option validation, the
// logical-clock token bucket (including the fair-share property that other
// devices' traffic refills a throttled device), the refill arithmetic's
// uint64 overflow edges at near-max clock values, the distinct/reuse budget
// split with its bounded challenge sketch, the deny-histogram delta
// flushing, the detector's AdmissionPenalty semantics, LRU capacity
// eviction, replay determinism, and the AuthService integration contract —
// admission is a
// serial pre-pass whose admitted subsequence verifies bit-identically to an
// admission-free batch at any thread budget.
#include "service/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "puf/crp.h"
#include "registry/format.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace ropuf::service {
namespace {

AdmissionOptions rate_only(std::uint64_t burst, std::uint64_t interval) {
  AdmissionOptions options;
  options.rate_burst = burst;
  options.rate_interval = interval;
  return options;
}

TEST(AdmissionOptions, EnabledOnlyWhenACheckIsConfigured) {
  EXPECT_FALSE(AdmissionOptions{}.enabled());
  EXPECT_TRUE(rate_only(4, 2).enabled());
  AdmissionOptions crp;
  crp.crp_budget = 8;
  EXPECT_TRUE(crp.enabled());
  AdmissionOptions reuse;
  reuse.reuse_budget = 2;
  EXPECT_TRUE(reuse.enabled());
}

TEST(AdmissionController, RejectsInconsistentOptions) {
  AdmissionOptions half_rate;
  half_rate.rate_burst = 4;  // burst without an interval is meaningless
  EXPECT_THROW(AdmissionController{half_rate}, Error);

  AdmissionOptions other_half;
  other_half.rate_interval = 4;
  EXPECT_THROW(AdmissionController{other_half}, Error);

  AdmissionOptions no_capacity = rate_only(4, 2);
  no_capacity.device_capacity = 0;
  EXPECT_THROW(AdmissionController{no_capacity}, Error);

  // Zero capacity is fine while admission is off: no state is ever tracked.
  AdmissionOptions disabled;
  disabled.device_capacity = 0;
  EXPECT_NO_THROW(AdmissionController{disabled});
}

TEST(AdmissionController, DisabledAdmitsEverythingWithoutTrackingState) {
  AdmissionController controller{AdmissionOptions{}};
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(controller.admit(i, i * 31), Admission::kAdmit);
  }
  EXPECT_EQ(controller.tracked_devices(), 0u);
  EXPECT_EQ(controller.ticks(), 0u);
}

TEST(AdmissionController, TokenBucketDrainsAndRefillsOnTheLogicalClock) {
  // burst 2, one token per 4 ticks. The clock ticks once per admit() call.
  AdmissionController controller{rate_only(2, 4)};

  EXPECT_EQ(controller.admit(1, 100), Admission::kAdmit);        // tick 1
  EXPECT_EQ(controller.admit(1, 101), Admission::kAdmit);        // tick 2
  EXPECT_EQ(controller.admit(1, 102), Admission::kRateLimited);  // tick 3: empty

  // Another device's traffic advances the shared clock — the fair-share
  // property: a busy server refills the throttled device sooner.
  EXPECT_EQ(controller.admit(2, 200), Admission::kAdmit);  // tick 4
  EXPECT_EQ(controller.admit(2, 201), Admission::kAdmit);  // tick 5

  // Device 1 was created at tick 1; by tick 6 it earned 5/4 = 1 token.
  EXPECT_EQ(controller.admit(1, 103), Admission::kAdmit);        // tick 6
  EXPECT_EQ(controller.admit(1, 104), Admission::kRateLimited);  // tick 7
  EXPECT_EQ(controller.ticks(), 7u);
}

TEST(AdmissionController, FullBucketDoesNotBankSurplusTokens) {
  AdmissionController controller{rate_only(1, 2)};

  EXPECT_EQ(controller.admit(1, 0), Admission::kAdmit);  // tick 1, bucket empty
  // Let a long quiet period elapse on device 2's traffic: device 1 earns
  // many tokens but must cap at burst = 1, not bank the surplus.
  for (std::uint64_t i = 0; i < 10; ++i) controller.admit(2, i);  // ticks 2..11
  EXPECT_EQ(controller.admit(1, 1), Admission::kAdmit);        // spends the 1
  EXPECT_EQ(controller.admit(1, 2), Admission::kRateLimited);  // no banked extra
}

TEST(AdmissionController, ReuseBudgetCapsRepeatedChallenges) {
  AdmissionOptions options;
  options.reuse_budget = 2;
  AdmissionController controller{options};

  EXPECT_EQ(controller.admit(1, 42), Admission::kAdmit);  // fresh
  EXPECT_EQ(controller.admit(1, 42), Admission::kAdmit);  // repeat 1
  EXPECT_EQ(controller.admit(1, 42), Admission::kAdmit);  // repeat 2
  EXPECT_EQ(controller.admit(1, 42), Admission::kBudgetExhausted);

  // The reuse budget is cumulative per device, not per challenge: a repeat
  // of a *different* seen challenge is denied too.
  EXPECT_EQ(controller.admit(1, 43), Admission::kAdmit);  // fresh is still fine
  EXPECT_EQ(controller.admit(1, 43), Admission::kBudgetExhausted);

  // Other devices have their own budget.
  EXPECT_EQ(controller.admit(2, 42), Admission::kAdmit);
  EXPECT_EQ(controller.admit(2, 42), Admission::kAdmit);
}

TEST(AdmissionController, CrpBudgetCapsDistinctChallenges) {
  AdmissionOptions options;
  options.crp_budget = 3;
  AdmissionController controller{options};

  EXPECT_EQ(controller.admit(1, 10), Admission::kAdmit);
  EXPECT_EQ(controller.admit(1, 11), Admission::kAdmit);
  EXPECT_EQ(controller.admit(1, 12), Admission::kAdmit);
  EXPECT_EQ(controller.admit(1, 13), Admission::kBudgetExhausted);
  // Repeats of already-seen challenges are unlimited (reuse_budget off).
  EXPECT_EQ(controller.admit(1, 10), Admission::kAdmit);
  EXPECT_EQ(controller.admit(1, 12), Admission::kAdmit);
}

TEST(AdmissionController, SketchEvictionReclassifiesOldChallengesAsFresh) {
  // The sketch holds 64 challenges: challenge 10 is forgotten once 64 more
  // land, so its re-presentation charges the distinct budget again — the
  // safe direction (the attacker pays more, never less).
  AdmissionOptions options;
  options.crp_budget = 65;
  AdmissionController controller{options};

  for (std::uint64_t challenge = 10; challenge < 75; ++challenge) {
    EXPECT_EQ(controller.admit(1, challenge), Admission::kAdmit);  // 74 evicts 10
  }
  EXPECT_EQ(controller.admit(1, 10), Admission::kBudgetExhausted);
  // 11 and 74 are still in the sketch: repeats, hence admitted.
  EXPECT_EQ(controller.admit(1, 11), Admission::kAdmit);
  EXPECT_EQ(controller.admit(1, 74), Admission::kAdmit);
}

TEST(AdmissionController, LruEvictionBoundsTrackedDevicesAndForgetsBudgets) {
  AdmissionOptions options;
  options.crp_budget = 1;
  options.device_capacity = 2;
  AdmissionController controller{options};

  EXPECT_EQ(controller.admit(1, 0), Admission::kAdmit);
  EXPECT_EQ(controller.admit(1, 1), Admission::kBudgetExhausted);  // spent
  EXPECT_EQ(controller.admit(2, 0), Admission::kAdmit);
  EXPECT_EQ(controller.admit(3, 0), Admission::kAdmit);  // evicts device 1
  EXPECT_EQ(controller.tracked_devices(), 2u);

  // Device 1 returns with a fresh (forgotten) budget — the documented
  // bounded-memory trade-off.
  EXPECT_EQ(controller.admit(1, 2), Admission::kAdmit);
  EXPECT_EQ(controller.tracked_devices(), 2u);
  controller.flush_metrics();  // records deny histograms; must not throw
}

TEST(AdmissionController, SameArrivalOrderReplaysTheSameDecisions) {
  AdmissionOptions options = rate_only(3, 2);
  options.crp_budget = 80;
  options.reuse_budget = 2;

  // A deliberately adversarial interleaving across 3 devices, with repeats
  // both inside the 64-entry sketch and past it (106 distinct challenges
  // per device).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sequence;
  for (std::uint64_t i = 0; i < 600; ++i) {
    sequence.emplace_back(i % 3, (i * i) % 211);
  }

  AdmissionController a{options};
  AdmissionController b{options};
  for (const auto& [device, challenge] : sequence) {
    EXPECT_EQ(a.admit(device, challenge), b.admit(device, challenge));
  }
  EXPECT_EQ(a.ticks(), b.ticks());
  EXPECT_EQ(a.tracked_devices(), b.tracked_devices());
}

// --------------------------------------------- refill arithmetic edges

TEST(RefillTokens, SaturatingMulClampsInsteadOfWrapping) {
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(saturating_mul_u64(0, max), 0u);
  EXPECT_EQ(saturating_mul_u64(max, 0), 0u);
  EXPECT_EQ(saturating_mul_u64(3, 5), 15u);
  EXPECT_EQ(saturating_mul_u64(max, 2), max);
  EXPECT_EQ(saturating_mul_u64(1ull << 32, 1ull << 32), max);
  EXPECT_EQ(saturating_mul_u64(max, max), max);
}

TEST(RefillTokens, HugeTickGapRefillsToBurstInsteadOfWrapping) {
  // A device re-appearing after a near-2^64 tick gap earns ~2^64 tokens; a
  // naive `tokens + earned` wraps and refills the bucket to almost nothing.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const RefillResult result = refill_tokens(/*tokens=*/5, /*last=*/0,
                                            /*now=*/max, /*burst=*/10,
                                            /*interval=*/1);
  EXPECT_EQ(result.tokens, 10u);
  EXPECT_EQ(result.last_refill_tick, max);
}

TEST(RefillTokens, NearMaxTokensPlusEarnedCannotWrapBelowBurst) {
  // tokens + earned overflows uint64 here (naively wrapping to 3 < burst,
  // i.e. a *partial* refill of 3 tokens); the rearranged comparison must
  // still classify it as a full bucket.
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const RefillResult result = refill_tokens(/*tokens=*/max - 1, /*last=*/0,
                                            /*now=*/5, /*burst=*/max,
                                            /*interval=*/1);
  EXPECT_EQ(result.tokens, max);
  EXPECT_EQ(result.last_refill_tick, 5u);
}

TEST(RefillTokens, PartialRefillAdvancesTheClockByWholeIntervalsOnly) {
  // Near-max now_tick with a huge interval: one earned token, and the
  // refill clock advances by exactly earned * interval (which can never
  // exceed the elapsed ticks, so it cannot wrap either).
  const std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  const RefillResult result = refill_tokens(/*tokens=*/0, /*last=*/0,
                                            /*now=*/max, /*burst=*/max,
                                            /*interval=*/1ull << 63);
  EXPECT_EQ(result.tokens, 1u);
  EXPECT_EQ(result.last_refill_tick, 1ull << 63);
}

TEST(RefillTokens, NoElapsedIntervalLeavesStateUntouched) {
  const RefillResult idle = refill_tokens(3, 100, 101, 8, 4);
  EXPECT_EQ(idle.tokens, 3u);
  EXPECT_EQ(idle.last_refill_tick, 100u);
  // interval 0 = rate limiting off: nothing to earn, nothing to advance.
  const RefillResult off = refill_tokens(3, 0, 1ull << 40, 8, 0);
  EXPECT_EQ(off.tokens, 3u);
  EXPECT_EQ(off.last_refill_tick, 0u);
}

// --------------------------------------------- deny histogram flushing

TEST(AdmissionController, FlushMetricsTwiceRecordsEachDenyOnce) {
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();
  AdmissionOptions options;
  options.reuse_budget = 1;
  AdmissionController controller{options};
  obs::Histogram& denies = obs::Registry::instance().histogram(
      "service.admission_denies_per_device", {});

  EXPECT_EQ(controller.admit(1, 42), Admission::kAdmit);
  EXPECT_EQ(controller.admit(1, 42), Admission::kAdmit);            // repeat 1
  EXPECT_EQ(controller.admit(1, 42), Admission::kBudgetExhausted);  // deny 1

  controller.flush_metrics();
  EXPECT_EQ(denies.count(), 1u);
  EXPECT_DOUBLE_EQ(denies.sum(), 1.0);

  // The regression this pins: a second flush with no new denies must not
  // re-record the device's lifetime count (the old behavior double-counted
  // every checkpoint-then-shutdown flush pair).
  controller.flush_metrics();
  EXPECT_EQ(denies.count(), 1u);
  EXPECT_DOUBLE_EQ(denies.sum(), 1.0);

  // New denies after a flush record only the delta...
  EXPECT_EQ(controller.admit(1, 42), Admission::kBudgetExhausted);
  EXPECT_EQ(controller.admit(1, 42), Admission::kBudgetExhausted);
  controller.flush_metrics();
  EXPECT_EQ(denies.count(), 2u);
  EXPECT_DOUBLE_EQ(denies.sum(), 3.0);

  // ...and a flush-then-evict sequence still counts each deny exactly once.
  controller.flush_metrics();
  EXPECT_EQ(denies.count(), 2u);
  EXPECT_DOUBLE_EQ(denies.sum(), 3.0);
  obs::set_metrics_enabled(false);
}

TEST(AdmissionController, DenyHistogramBucketsCoverThePowerOfTwoLadder) {
  // The bucket ladder must be complete powers of two through 1024: a
  // missing bucket (512 was absent once) silently merges two abuse classes.
  AdmissionController controller{AdmissionOptions{}};  // registers the histogram
  const obs::Histogram& denies = obs::Registry::instance().histogram(
      "service.admission_denies_per_device", {});
  const std::vector<double>& bounds = denies.upper_bounds();
  for (std::uint64_t bound = 1; bound <= 1024; bound *= 2) {
    EXPECT_NE(std::find(bounds.begin(), bounds.end(), static_cast<double>(bound)),
              bounds.end())
        << "missing bucket " << bound;
  }
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
}

// --------------------------------------------- detector penalties

TEST(AdmissionPenalty, NeutralPenaltyReproducesStaticDecisions) {
  AdmissionOptions options = rate_only(2, 4);
  options.reuse_budget = 2;
  AdmissionController with{options};
  AdmissionController without{options};
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t challenge = (i * 7) % 5;
    EXPECT_EQ(with.admit(1, challenge, AdmissionPenalty{}),
              without.admit(1, challenge));
  }
}

TEST(AdmissionPenalty, IntervalFactorStretchesTheRefill) {
  // burst 1, interval 2: after the burst token is spent, a neutral device
  // refills on the second tick of elapsed clock; a factor-2 penalty makes
  // the same device wait four ticks.
  AdmissionPenalty slow;
  slow.interval_factor = 2;

  AdmissionController controller{rate_only(1, 2)};
  EXPECT_EQ(controller.admit(1, 100, slow), Admission::kAdmit);        // tick 1
  EXPECT_EQ(controller.admit(1, 101, slow), Admission::kRateLimited);  // tick 2
  // Neutral would refill here (elapsed 2 >= interval 2); the penalized
  // effective interval is 4, so still dry.
  EXPECT_EQ(controller.admit(1, 102, slow), Admission::kRateLimited);  // tick 3
  EXPECT_EQ(controller.admit(1, 103, slow), Admission::kRateLimited);  // tick 4
  EXPECT_EQ(controller.admit(1, 104, slow), Admission::kAdmit);        // tick 5
}

TEST(AdmissionPenalty, SaturatedIntervalFreezesRefillsInsteadOfWrapping) {
  // An absurd factor must clamp the effective interval at uint64 max (no
  // refill ever), not wrap around into a fast one.
  AdmissionPenalty frozen;
  frozen.interval_factor = std::numeric_limits<std::uint64_t>::max();

  AdmissionController controller{rate_only(1, 2)};
  EXPECT_EQ(controller.admit(1, 100, frozen), Admission::kAdmit);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(controller.admit(1, 101 + i, frozen), Admission::kRateLimited);
  }
}

TEST(AdmissionPenalty, ReuseShiftShrinksTheRepeatBudget) {
  AdmissionOptions options;
  options.reuse_budget = 4;
  AdmissionController controller{options};
  AdmissionPenalty halved;
  halved.reuse_shift = 1;  // effective budget 2

  EXPECT_EQ(controller.admit(1, 42, halved), Admission::kAdmit);  // fresh
  EXPECT_EQ(controller.admit(1, 42, halved), Admission::kAdmit);  // repeat 1
  EXPECT_EQ(controller.admit(1, 42, halved), Admission::kAdmit);  // repeat 2
  EXPECT_EQ(controller.admit(1, 42, halved), Admission::kBudgetExhausted);
  // The penalty acts per decision: back at neutral, the static budget of 4
  // still has room (2 repeats used so far).
  EXPECT_EQ(controller.admit(1, 42), Admission::kAdmit);  // repeat 3
  EXPECT_EQ(controller.admit(1, 42), Admission::kAdmit);  // repeat 4
  EXPECT_EQ(controller.admit(1, 42), Admission::kBudgetExhausted);
}

TEST(AdmissionPenalty, DeepShiftDeniesEveryRepeatButNeverFreshChallenges) {
  // A shift >= 64 would be UB on the raw >> operator; the controller must
  // treat it as a zero effective budget (deny all repeats) while fresh
  // challenges keep flowing.
  AdmissionOptions options;
  options.reuse_budget = 8;
  AdmissionController controller{options};
  AdmissionPenalty deep;
  deep.reuse_shift = 64;

  EXPECT_EQ(controller.admit(1, 42, deep), Admission::kAdmit);  // fresh
  EXPECT_EQ(controller.admit(1, 42, deep), Admission::kBudgetExhausted);
  EXPECT_EQ(controller.admit(1, 43, deep), Admission::kAdmit);  // fresh
  deep.reuse_shift = 200;
  EXPECT_EQ(controller.admit(1, 43, deep), Admission::kBudgetExhausted);
}

TEST(AdmissionPenalty, ShiftNeverEnablesADisabledReuseCheck) {
  // Static reuse_budget 0 means the check is off; a penalty must not turn
  // "off" into "deny everything" for a device that was never suspicious
  // under a configuration that never limited repeats.
  AdmissionOptions options;
  options.crp_budget = 8;  // enabled, but no reuse limit
  AdmissionController controller{options};
  AdmissionPenalty deep;
  deep.reuse_shift = 64;
  for (std::uint64_t i = 0; i < 16; ++i) {
    EXPECT_EQ(controller.admit(1, 42, deep), Admission::kAdmit);
  }
}

// --------------------------------------------- AuthService integration

registry::Registry admission_registry(std::size_t devices = 8) {
  registry::FleetSpec spec;
  spec.devices = devices;
  spec.stages = 5;
  spec.pairs = 16;
  spec.seed = 0xad317;
  return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
}

std::vector<AuthRequest> true_requests(const registry::Registry& registry,
                                       const AuthServiceOptions& options,
                                       std::size_t per_device) {
  std::vector<AuthRequest> requests;
  for (std::size_t r = 0; r < per_device; ++r) {
    for (std::size_t d = 0; d < registry.device_count(); ++d) {
      const std::uint64_t id = registry.device_id_at(d);
      const auto enrollment = registry.lookup(id);
      const puf::CrpOracle oracle(&enrollment, options.response_bits);
      const std::uint64_t challenge = 0x9e3779b9ull * (r + 1) + d;
      requests.push_back({id, challenge, oracle.reference(challenge)});
    }
  }
  return requests;
}

AuthRequest genuine(const registry::Registry& registry, const AuthServiceOptions& options,
                    std::size_t device_index, std::uint64_t challenge) {
  const std::uint64_t id = registry.device_id_at(device_index);
  const auto enrollment = registry.lookup(id);
  const puf::CrpOracle oracle(&enrollment, options.response_bits);
  return {id, challenge, oracle.reference(challenge)};
}

TEST(AuthServiceAdmission, DeniedVerdictsCarryTheAdmissionStatus) {
  const auto registry = admission_registry();
  AuthServiceOptions options;
  options.response_bits = 8;
  options.admission.rate_burst = 2;
  options.admission.rate_interval = 1000;  // effectively no refill in-test
  const AuthService service(&registry, options);

  const auto requests = true_requests(registry, options, 4);
  const std::vector<AuthVerdict> verdicts = service.verify_batch(requests);
  ASSERT_EQ(verdicts.size(), requests.size());

  std::size_t admitted = 0;
  std::size_t limited = 0;
  for (const AuthVerdict& verdict : verdicts) {
    if (verdict.status == AuthStatus::kRateLimited) {
      ++limited;
      EXPECT_EQ(verdict.distance, 0u);
      EXPECT_EQ(verdict.response_bits, options.response_bits);
    } else {
      EXPECT_EQ(verdict.status, AuthStatus::kAccept);
      ++admitted;
    }
  }
  // 8 devices x 2 burst tokens admit; the remaining 2 rounds rate-limit.
  EXPECT_EQ(admitted, 16u);
  EXPECT_EQ(limited, 16u);
}

TEST(AuthServiceAdmission, AdmittedSubsequenceMatchesAdmissionFreeBatch) {
  // The determinism contract behind the soak harness's digest parity: strip
  // the denied verdicts, re-verify the admitted requests with admission off,
  // and the verdicts must be bit-identical at every thread budget.
  const auto registry = admission_registry();
  AuthServiceOptions defended;
  defended.response_bits = 8;
  defended.admission.rate_burst = 3;
  defended.admission.rate_interval = 4;
  defended.admission.crp_budget = 6;
  // Device-major order: each device's 6 requests arrive back to back, so
  // its bucket (burst 3, one token per 4 ticks) actually empties mid-block.
  std::vector<AuthRequest> requests = true_requests(registry, defended, 6);
  std::stable_sort(requests.begin(), requests.end(),
                   [](const AuthRequest& a, const AuthRequest& b) {
                     return a.device_id < b.device_id;
                   });

  const AuthService service(&registry, defended);
  const std::vector<AuthVerdict> verdicts = service.verify_batch(requests);

  std::vector<AuthRequest> admitted_requests;
  std::vector<AuthVerdict> admitted_verdicts;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].status == AuthStatus::kRateLimited ||
        verdicts[i].status == AuthStatus::kBudgetExhausted) {
      continue;
    }
    admitted_requests.push_back(requests[i]);
    admitted_verdicts.push_back(verdicts[i]);
  }
  ASSERT_GT(admitted_requests.size(), 0u);
  ASSERT_LT(admitted_requests.size(), requests.size());

  AuthServiceOptions open = defended;
  open.admission = AdmissionOptions{};
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_budget_override(threads);
    const AuthService offline(&registry, open);
    EXPECT_EQ(service::verdict_digest(offline.verify_batch(admitted_requests)),
              service::verdict_digest(admitted_verdicts))
        << "threads=" << threads;
  }
  set_thread_budget_override(0);
}

TEST(AuthServiceAdmission, BatchDecisionsAreThreadBudgetInvariant) {
  // The admission pre-pass itself is serial, so *which* requests get denied
  // must not depend on the verification thread budget either.
  const auto registry = admission_registry();
  AuthServiceOptions options;
  options.response_bits = 8;
  options.admission.rate_burst = 2;
  options.admission.rate_interval = 3;
  options.admission.reuse_budget = 1;
  const auto requests = true_requests(registry, options, 5);

  std::vector<std::uint64_t> reference_digest;
  for (const std::size_t threads : {1u, 4u}) {
    set_thread_budget_override(threads);
    const AuthService service(&registry, options);
    reference_digest.push_back(
        service::verdict_digest(service.verify_batch(requests)));
  }
  set_thread_budget_override(0);
  EXPECT_EQ(reference_digest[0], reference_digest[1]);
}

TEST(AuthServiceAdmission, SingleVerifyBypassesAdmission) {
  // verify() is the offline/debug entry point and stays admission-free;
  // only the batch path (what the server drains) is admission-controlled.
  const auto registry = admission_registry();
  AuthServiceOptions options;
  options.response_bits = 8;
  options.admission.crp_budget = 1;
  const AuthService service(&registry, options);

  const auto requests = true_requests(registry, options, 3);
  for (const AuthRequest& request : requests) {
    EXPECT_EQ(service.verify(request).status, AuthStatus::kAccept);
  }
  EXPECT_EQ(service.admission().ticks(), 0u);
}

// --------------------------------------------- admission sharding

TEST(AuthServiceAdmission, ShardedOptionsValidate) {
  const auto registry = admission_registry();

  AuthServiceOptions zero;
  zero.admission_shards = 0;
  EXPECT_THROW(AuthService(&registry, zero), Error);

  // Enabled admission needs at least one device-state slot per slice.
  AuthServiceOptions starved;
  starved.admission.rate_burst = 2;
  starved.admission.rate_interval = 4;
  starved.admission.device_capacity = 3;
  starved.admission_shards = 4;
  EXPECT_THROW(AuthService(&registry, starved), Error);

  // Disabled admission tracks no state, so any shard count is fine.
  AuthServiceOptions open;
  open.admission_shards = 4;
  const AuthService service(&registry, open);
  EXPECT_EQ(service.admission_shard_count(), 4u);
}

TEST(AuthServiceAdmission, SliceRoutingIsDeterministicPerDevice) {
  const auto registry = admission_registry();
  AuthServiceOptions options;
  options.admission_shards = 3;
  const AuthService service(&registry, options);
  for (std::uint64_t id = 0; id < 64; ++id) {
    const std::size_t slice = service.admission_slice_index(id);
    EXPECT_LT(slice, 3u);
    EXPECT_EQ(service.admission_slice_index(id), slice);  // stable
  }
}

TEST(AuthServiceAdmission, SingleDeviceDecisionsAreShardCountInvariant) {
  // A device's slice receives exactly the device's own requests when it is
  // the only traffic, so its decision sequence — token-bucket drains,
  // refills, reuse denials — cannot depend on how many slices exist.
  const auto registry = admission_registry();
  std::vector<std::uint64_t> digests;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    AuthServiceOptions options;
    options.response_bits = 8;
    options.admission.rate_burst = 2;
    options.admission.rate_interval = 3;
    options.admission.reuse_budget = 1;
    options.admission_shards = shards;
    const AuthService service(&registry, options);

    std::vector<AuthRequest> requests;
    for (std::uint64_t r = 0; r < 24; ++r) {
      // Repeats every 6 challenges exercise the reuse budget too.
      requests.push_back(genuine(registry, options, 0, 100 + (r % 6)));
    }
    digests.push_back(service::verdict_digest(service.verify_batch(requests)));
  }
  EXPECT_EQ(digests[0], digests[1]);
  EXPECT_EQ(digests[0], digests[2]);
}

TEST(AuthServiceAdmission, SliceReplayReproducesShardedDecisions) {
  // The sharding contract, stated as a replay: feeding each slice's
  // subsequence (the requests hashed to it, in arrival order) through a
  // standalone controller with that slice's capacity share must reproduce
  // the sharded service's decisions exactly. Devices hashed to other
  // slices are invisible — they tick other clocks.
  const auto registry = admission_registry();
  AuthServiceOptions options;
  options.response_bits = 8;
  options.admission.rate_burst = 2;
  options.admission.rate_interval = 3;
  options.admission.device_capacity = 7;  // uneven split: shares 3, 2, 2
  options.admission_shards = 3;
  const AuthService service(&registry, options);

  // Device-major traffic: each device's 5 requests hit its slice on
  // consecutive ticks, so every device outruns burst 2 + refill-per-3 and
  // every populated slice is guaranteed to deny something.
  std::vector<AuthRequest> requests = true_requests(registry, options, 5);
  std::stable_sort(requests.begin(), requests.end(),
                   [](const AuthRequest& a, const AuthRequest& b) {
                     return a.device_id < b.device_id;
                   });
  const std::vector<AuthVerdict> verdicts = service.verify_batch(requests);

  for (std::size_t s = 0; s < 3; ++s) {
    AdmissionOptions slice_options = options.admission;
    slice_options.device_capacity = 7 / 3 + (s < 7 % 3 ? 1 : 0);
    AdmissionController replay{slice_options};
    bool any_denied = false;
    std::size_t slice_requests = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (service.admission_slice_index(requests[i].device_id) != s) continue;
      ++slice_requests;
      const Admission decision =
          replay.admit(requests[i].device_id, requests[i].challenge);
      switch (decision) {
        case Admission::kAdmit:
          EXPECT_NE(verdicts[i].status, AuthStatus::kRateLimited) << "request " << i;
          EXPECT_NE(verdicts[i].status, AuthStatus::kBudgetExhausted) << "request " << i;
          break;
        case Admission::kRateLimited:
          any_denied = true;
          EXPECT_EQ(verdicts[i].status, AuthStatus::kRateLimited) << "request " << i;
          break;
        case Admission::kBudgetExhausted:
          any_denied = true;
          EXPECT_EQ(verdicts[i].status, AuthStatus::kBudgetExhausted) << "request " << i;
          break;
      }
    }
    if (slice_requests > 0) {
      EXPECT_TRUE(any_denied) << "slice " << s << " never under pressure";
    }
  }
}

TEST(AuthServiceAdmission, StatusNamesCoverTheAdmissionVerdicts) {
  EXPECT_STREQ(auth_status_name(AuthStatus::kRateLimited), "rate-limited");
  EXPECT_STREQ(auth_status_name(AuthStatus::kBudgetExhausted), "budget-exhausted");
}

}  // namespace
}  // namespace ropuf::service

// Tests for the online model-building detector: option validation, the
// per-signature window classifiers (repeat runs, single-bit guesses,
// distance staircases) including the accepted-low-weight exemption that
// keeps genuinely skewed devices clean, the escalation/decay ladder and its
// admission penalties, LRU capacity eviction, replay determinism, evasive
// (decoy-interleaved) harvester streams, the device bound the detector
// shares with admission, and the AuthService integration contract — the
// detector only changes *which* requests admit, never a verdict, so the
// admitted subsequence keeps digest parity with an admission-free batch at
// any thread budget.
#include "service/detector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attack/harvest.h"
#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "puf/crp.h"
#include "registry/format.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace ropuf::service {
namespace {

DetectorOptions enabled_options() {
  DetectorOptions options;
  options.enabled = true;
  return options;
}

StreamObservation legit_observation(std::uint64_t challenge, std::size_t weight = 8) {
  StreamObservation observation;
  observation.challenge = challenge;
  observation.guess_weight = weight;
  observation.answered = true;
  observation.accepted = true;
  observation.distance = 0;
  return observation;
}

StreamObservation probe_observation(std::uint64_t challenge, std::size_t weight,
                                    std::size_t distance, bool answered = true) {
  StreamObservation observation;
  observation.challenge = challenge;
  observation.guess_weight = weight;
  observation.answered = answered;
  observation.accepted = false;
  observation.distance = distance;
  return observation;
}

TEST(DetectorOptions, ValidatedOnlyWhenEnabled) {
  // A disabled detector tracks no state, so a zero capacity is inert.
  EXPECT_NO_THROW((StreamDetector{DetectorOptions{}, 0}));
  EXPECT_THROW((StreamDetector{enabled_options(), 0}), Error);
}

TEST(StreamDetector, PenaltyLadderDoublesIntervalAndHalvesReuse) {
  EXPECT_TRUE(StreamDetector::penalty_for_level(0).neutral());
  const AdmissionPenalty one = StreamDetector::penalty_for_level(1);
  EXPECT_EQ(one.interval_factor, 2u);
  EXPECT_EQ(one.reuse_shift, 1u);
  const AdmissionPenalty four = StreamDetector::penalty_for_level(4);
  EXPECT_EQ(four.interval_factor, 16u);
  EXPECT_EQ(four.reuse_shift, 4u);
  // Levels past the uint64 shift range saturate instead of wrapping into a
  // *fast* interval factor.
  const AdmissionPenalty deep = StreamDetector::penalty_for_level(64);
  EXPECT_EQ(deep.interval_factor, ~0ull);
  EXPECT_EQ(deep.reuse_shift, 64u);
}

TEST(StreamDetector, DisabledDetectorIsANoOp) {
  StreamDetector detector{DetectorOptions{}};
  for (std::uint64_t i = 0; i < 50; ++i) {
    detector.observe(1, probe_observation(42, 0, 6));
  }
  EXPECT_EQ(detector.level(1), 0u);
  EXPECT_TRUE(detector.penalty(1).neutral());
  EXPECT_EQ(detector.tracked_devices(), 0u);
}

TEST(StreamDetector, RepeatRunsEscalateToTheLadderCap) {
  StreamDetector detector{enabled_options()};
  // Repeat tolerance 2 and score 2, threshold 8: the flag fires
  // from the 3rd same-challenge ask and every level costs 4 flagged asks.
  for (std::size_t i = 0; i < 5; ++i) {
    detector.observe(1, legit_observation(42));
  }
  EXPECT_EQ(detector.level(1), 0u);  // 5 flagged-or-not asks: score 6 < 8
  detector.observe(1, legit_observation(42));
  EXPECT_EQ(detector.level(1), 1u);  // 4th flagged ask crosses threshold 8

  for (std::size_t i = 0; i < 100; ++i) {
    detector.observe(1, legit_observation(42));
  }
  EXPECT_EQ(detector.level(1), StreamDetector::kMaxLevel);  // capped
  EXPECT_EQ(detector.penalty(1).interval_factor, 16u);
  EXPECT_EQ(detector.penalty(1).reuse_shift, 4u);
}

TEST(StreamDetector, DistinctChallengeTrafficNeverFlags) {
  StreamDetector detector{enabled_options()};
  Rng rng(0x1e917);
  for (std::size_t i = 0; i < 500; ++i) {
    detector.observe(1, legit_observation(rng.next_u64()));
  }
  EXPECT_EQ(detector.level(1), 0u);
  EXPECT_TRUE(detector.penalty(1).neutral());
}

TEST(StreamDetector, AcceptedLowWeightResponsesNeverFlag) {
  // The false-positive regression the soak run caught: a genuine device
  // whose enrolled reference sits near all-zeros produces *accepted*
  // popcount<=1 responses on distinct challenges. That must never read as
  // the single-bit-guess signature — only non-accepted low weight does.
  StreamDetector detector{enabled_options()};
  Rng rng(0x0b1a5);
  for (std::size_t i = 0; i < 500; ++i) {
    StreamObservation skewed = legit_observation(rng.next_u64(), i % 2);
    detector.observe(1, skewed);
  }
  EXPECT_EQ(detector.level(1), 0u);
}

TEST(StreamDetector, NonAcceptedLowWeightRunsEscalate) {
  StreamDetector detector{enabled_options()};
  Rng rng(0xf00d);
  // Distinct challenges (no repeat flag), weight-1 rejected guesses: the
  // window count reaches the low-weight run of 4 on the 4th, then +1 per ask —
  // threshold 8 crossed on the 11th.
  for (std::size_t i = 0; i < 10; ++i) {
    detector.observe(1, probe_observation(rng.next_u64(), 1, 5));
  }
  EXPECT_EQ(detector.level(1), 0u);
  detector.observe(1, probe_observation(rng.next_u64(), 1, 5));
  EXPECT_EQ(detector.level(1), 1u);
}

TEST(StreamDetector, StaircaseSurvivesInterleavedDecoys) {
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();
  StreamDetector detector{enabled_options()};
  obs::Counter& staircase_flags =
      obs::Registry::instance().counter("service.detector.staircase_flags");

  // The oracle shape: answered weight-0 baseline at distance 6, then
  // same-challenge weight-1 probes stepping to exactly 5 or 7 — with a
  // legit-shaped decoy between each, which must not reset the chain.
  Rng rng(0xdec0);
  detector.observe(1, probe_observation(100, 0, 6));
  for (std::size_t i = 0; i < 8; ++i) {
    detector.observe(1, legit_observation(rng.next_u64()));  // decoy
    detector.observe(1, probe_observation(100, 1, i % 2 == 0 ? 5 : 7));
  }
  EXPECT_GT(staircase_flags.value(), 0u);
  EXPECT_GT(detector.level(1), 0u);
  obs::set_metrics_enabled(false);
}

TEST(StreamDetector, CleanTrafficDecaysScoreThenStepsTheLadderDown) {
  StreamDetector detector{enabled_options()};

  for (std::size_t i = 0; i < 6; ++i) {
    detector.observe(1, legit_observation(42));  // repeat run
  }
  ASSERT_EQ(detector.level(1), 1u);

  // Escalation reset the score to zero, so the first full clean decay
  // window (64 observations) already steps the level back down; suspicion
  // is a slowdown, not a ban.
  Rng rng(0xc1ea);
  for (std::size_t i = 0; i < 63; ++i) {
    detector.observe(1, legit_observation(rng.next_u64()));
  }
  EXPECT_EQ(detector.level(1), 1u);
  detector.observe(1, legit_observation(rng.next_u64()));
  EXPECT_EQ(detector.level(1), 0u);
  EXPECT_TRUE(detector.penalty(1).neutral());
}

TEST(StreamDetector, LruEvictionBoundsTrackedDevicesAndForgetsSuspicion) {
  StreamDetector detector{enabled_options(), 2};

  for (std::size_t i = 0; i < 20; ++i) {
    detector.observe(1, legit_observation(42));
  }
  ASSERT_GT(detector.level(1), 0u);
  detector.observe(2, legit_observation(1));
  detector.observe(3, legit_observation(2));  // evicts device 1
  EXPECT_EQ(detector.tracked_devices(), 2u);
  // The bounded-sketch trade-off: the evicted device's suspicion is gone.
  EXPECT_EQ(detector.level(1), 0u);
}

TEST(StreamDetector, LevelReadsDoNotKeepADeviceResident) {
  StreamDetector detector{enabled_options(), 2};
  detector.observe(1, legit_observation(1));
  for (std::size_t i = 0; i < 6; ++i) {
    detector.observe(2, legit_observation(42));  // repeat run: level 1
  }
  ASSERT_EQ(detector.level(2), 1u);
  // Penalty lookups (the admission pre-pass) touch device 1 between other
  // devices' observations; they must not promote it in the LRU — so the
  // next new device evicts the *idle* device 1, not the suspicious 2.
  EXPECT_EQ(detector.level(1), 0u);
  detector.observe(3, legit_observation(3));
  EXPECT_EQ(detector.tracked_devices(), 2u);
  EXPECT_EQ(detector.level(2), 1u);  // survived: device 1 was the victim
}

TEST(StreamDetector, SameObservationOrderReplaysTheSameLadder) {
  StreamDetector a{enabled_options()};
  StreamDetector b{enabled_options()};
  Rng rng(0x5eed);
  for (std::size_t i = 0; i < 400; ++i) {
    const std::uint64_t device = i % 3;
    StreamObservation observation;
    observation.challenge = rng.next_u64() % 16;  // plenty of repeats
    observation.guess_weight = rng.next_u64() % 9;
    observation.answered = rng.flip();
    observation.accepted = observation.answered && rng.flip();
    observation.distance = rng.next_u64() % 8;
    a.observe(device, observation);
    b.observe(device, observation);
  }
  for (std::uint64_t device = 0; device < 3; ++device) {
    EXPECT_EQ(a.level(device), b.level(device)) << "device " << device;
  }
  EXPECT_EQ(a.tracked_devices(), b.tracked_devices());
}

// --------------------------------------------- harvester streams

registry::Registry detector_registry(std::size_t devices = 4) {
  registry::FleetSpec spec;
  spec.devices = devices;
  spec.stages = 5;
  spec.pairs = 16;
  spec.seed = 0xde7ec7;
  return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
}

TEST(StreamDetector, EvasiveHarvesterStreamStillEscalates) {
  // The tentpole threat: an attacker interleaving 3 legit-shaped decoys per
  // oracle probe defeats any consecutive-run rule, but the window counts
  // still accumulate its repeats and single-bit guesses.
  const auto registry = detector_registry();
  const auto enrollment = registry.lookup(registry.device_id_at(0));
  const puf::CrpOracle oracle(&enrollment, 8);

  StreamDetector detector{enabled_options()};
  attack::EvasiveHarvester harvester(7, 8, 16, 0xbad, attack::EvasiveOptions{3});
  for (std::size_t i = 0; i < 120; ++i) {
    const attack::Probe probe = harvester.next_probe();
    const std::size_t distance =
        probe.guess.hamming_distance(oracle.reference(probe.challenge));
    StreamObservation observation;
    observation.challenge = probe.challenge;
    observation.guess_weight = probe.guess.popcount();
    observation.answered = true;
    observation.accepted = distance <= 2;
    observation.distance = distance;
    detector.observe(probe.device_id, observation);
    harvester.answered(distance);
  }
  EXPECT_EQ(detector.level(7), StreamDetector::kMaxLevel);
}

// --------------------------------------------- AuthService integration

AuthRequest genuine(const registry::Registry& registry, const AuthServiceOptions& options,
                    std::size_t device_index, std::uint64_t challenge) {
  const std::uint64_t id = registry.device_id_at(device_index);
  const auto enrollment = registry.lookup(id);
  const puf::CrpOracle oracle(&enrollment, options.response_bits);
  return {id, challenge, oracle.reference(challenge)};
}

AuthRequest oracle_probe(const registry::Registry& registry, std::size_t device_index,
                         std::size_t bits, std::uint64_t challenge, std::size_t bit) {
  BitVec guess(bits);
  if (bit < bits) guess.set(bit, true);  // bits == bit: all-zeros baseline
  return {registry.device_id_at(device_index), challenge, guess};
}

TEST(AuthServiceDetector, RejectsDetectorCapacityBelowShardCount) {
  // The detector shares admission's device_capacity, so the bound must
  // cover every slice even while admission itself is off.
  const auto registry = detector_registry();
  AuthServiceOptions options;
  options.detector.enabled = true;
  options.admission.device_capacity = 3;
  options.admission_shards = 4;
  EXPECT_THROW(AuthService(&registry, options), Error);
  options.admission_shards = 3;
  EXPECT_NO_THROW(AuthService(&registry, options));
}

TEST(AuthServiceDetector, DetectorSharesTheAdmissionDeviceBound) {
  // One device_capacity bounds both per-device tables of a slice: with room
  // for two devices, traffic from two others evicts a suspicious device's
  // detector state just as it would evict its admission state.
  const auto registry = detector_registry();
  AuthServiceOptions options;
  options.response_bits = 8;
  options.admission.device_capacity = 2;
  options.detector.enabled = true;
  const AuthService service(&registry, options);

  std::vector<AuthRequest> probes;
  for (std::size_t bit = 0; bit < 8; ++bit) {
    probes.push_back(oracle_probe(registry, 0, 8, 5, bit));
  }
  service.verify_batch(probes);
  ASSERT_GT(service.suspicion_level(registry.device_id_at(0)), 0u);

  service.verify_batch({genuine(registry, options, 1, 1), genuine(registry, options, 2, 2)});
  EXPECT_EQ(service.suspicion_level(registry.device_id_at(0)), 0u);
}

TEST(AuthServiceDetector, EscalatesTheProbingDeviceAndThrottlesIt) {
  const auto registry = detector_registry();
  AuthServiceOptions defended;
  defended.response_bits = 8;
  defended.admission.rate_burst = 16;
  defended.admission.rate_interval = 2;
  defended.admission.reuse_budget = 64;
  defended.detector.enabled = true;

  // The distance-oracle shape against device 0, with genuine device-1
  // traffic interleaved; loose static knobs would admit nearly all of it.
  // One small batch per round, the way the server drains its connections:
  // the detector's post-pass feeds each round's observations into the next
  // round's penalties (a single huge batch reads penalties once up front).
  std::vector<AuthRequest> requests;
  Rng rng(0x7e57);
  for (std::size_t round = 0; round < 48; ++round) {
    requests.push_back(oracle_probe(registry, 0, 8, 9000, round % 9));
    requests.push_back(genuine(registry, defended, 1, rng.next_u64()));
  }

  const AuthService service(&registry, defended);
  std::vector<AuthVerdict> verdicts;
  for (std::size_t round = 0; round < 48; ++round) {
    const std::vector<AuthVerdict> batch = service.verify_batch(
        {requests.begin() + 2 * round, requests.begin() + 2 * round + 2});
    verdicts.insert(verdicts.end(), batch.begin(), batch.end());
  }
  EXPECT_EQ(service.suspicion_level(registry.device_id_at(0)),
            StreamDetector::kMaxLevel);
  EXPECT_EQ(service.suspicion_level(registry.device_id_at(1)), 0u);

  std::size_t attacker_denied = 0;
  std::size_t legit_denied = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    const bool denied = verdicts[i].status == AuthStatus::kRateLimited ||
                        verdicts[i].status == AuthStatus::kBudgetExhausted;
    if (!denied) continue;
    if (requests[i].device_id == registry.device_id_at(0)) {
      ++attacker_denied;
    } else {
      ++legit_denied;
    }
  }
  // The ladder starves the prober while the legit device never pays: with
  // these loose static knobs an undetected attacker would sail through.
  EXPECT_GT(attacker_denied, 24u);
  EXPECT_EQ(legit_denied, 0u);

  // Static-only comparison: the same stream with detection off loses far
  // fewer attacker requests — the soak contract's gap, in miniature.
  AuthServiceOptions static_only = defended;
  static_only.detector.enabled = false;
  const AuthService undetected(&registry, static_only);
  const std::vector<AuthVerdict> static_verdicts = undetected.verify_batch(requests);
  std::size_t static_denied = 0;
  for (std::size_t i = 0; i < static_verdicts.size(); ++i) {
    if (static_verdicts[i].status == AuthStatus::kRateLimited ||
        static_verdicts[i].status == AuthStatus::kBudgetExhausted) {
      ++static_denied;
    }
  }
  EXPECT_LT(static_denied, attacker_denied);
}

TEST(AuthServiceDetector, AdmittedSubsequenceKeepsDigestParity) {
  // The determinism contract under detection: strip the denied verdicts and
  // the admitted subsequence must verify bit-identically on an open
  // (no admission, no detector) service at every thread budget.
  const auto registry = detector_registry();
  AuthServiceOptions defended;
  defended.response_bits = 8;
  defended.admission.rate_burst = 8;
  defended.admission.rate_interval = 2;
  defended.admission.reuse_budget = 16;
  defended.detector.enabled = true;

  std::vector<AuthRequest> requests;
  Rng rng(0xd1e57);
  for (std::size_t round = 0; round < 40; ++round) {
    requests.push_back(oracle_probe(registry, 0, 8, 77, round % 9));
    requests.push_back(genuine(registry, defended, 1 + round % 3, rng.next_u64()));
  }

  // Per-round batches so the escalating penalties actually shape the
  // admitted subsequence (see EscalatesTheProbingDeviceAndThrottlesIt).
  const AuthService service(&registry, defended);
  std::vector<AuthVerdict> verdicts;
  for (std::size_t round = 0; round < 40; ++round) {
    const std::vector<AuthVerdict> batch = service.verify_batch(
        {requests.begin() + 2 * round, requests.begin() + 2 * round + 2});
    verdicts.insert(verdicts.end(), batch.begin(), batch.end());
  }
  EXPECT_GT(service.suspicion_level(registry.device_id_at(0)), 0u);

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
  open.detector = DetectorOptions{};
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_budget_override(threads);
    const AuthService offline(&registry, open);
    EXPECT_EQ(service::verdict_digest(offline.verify_batch(admitted_requests)),
              service::verdict_digest(admitted_verdicts))
        << "threads=" << threads;
  }
  set_thread_budget_override(0);
}

TEST(AuthServiceDetector, DetectorWithoutAdmissionNeverChangesVerdicts) {
  // Suspicion only acts through admission penalties; with admission off the
  // detector observes, escalates — and the verdict stream stays identical.
  const auto registry = detector_registry();
  AuthServiceOptions watched;
  watched.response_bits = 8;
  watched.detector.enabled = true;
  AuthServiceOptions plain;
  plain.response_bits = 8;

  std::vector<AuthRequest> requests;
  for (std::size_t round = 0; round < 30; ++round) {
    requests.push_back(oracle_probe(registry, 0, 8, 123, round % 9));
  }
  const AuthService a(&registry, watched);
  const AuthService b(&registry, plain);
  EXPECT_EQ(service::verdict_digest(a.verify_batch(requests)),
            service::verdict_digest(b.verify_batch(requests)));
  EXPECT_GT(a.suspicion_level(registry.device_id_at(0)), 0u);
}

}  // namespace
}  // namespace ropuf::service

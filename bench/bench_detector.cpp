// Serving-layer extension: stream-detector overhead.
//
// The detector (src/service/detector.h) adds two costs to every served
// request: a penalty lookup in the admission pre-pass and a window-scan
// observation in the serial post-pass. Both sit on the batch path of every
// request — suspicious or not — so the clean-traffic cost is the one that
// matters for capacity planning. Measured here:
//
//   observe/clean   — distinct-challenge, genuine-shaped observations (the
//                     steady state: window scan, no flags, decay ticks)
//   observe/attack  — the distance-oracle shape (repeat + single-bit flags,
//                     staircase chains, ladder escalations)
//   penalty lookup  — the admission pre-pass read for a tracked device
//   verify_batch    — end-to-end service throughput, detector off vs on
//
// Shape checks: a clean stream must end at level 0 and the attack stream at
// the ladder cap, and enabling the detector (without admission) must not
// change a single verdict (digest equality — the parity contract).
#include "bench_common.h"

#include <chrono>

#include "common/rng.h"
#include "common/table.h"
#include "registry/registry.h"
#include "service/auth_service.h"
#include "service/detector.h"

namespace {

using namespace ropuf;

constexpr std::size_t kObservations = 16384;
constexpr std::size_t kDevices = 256;
constexpr std::size_t kRequests = 8192;

service::DetectorOptions detector_options() {
  service::DetectorOptions options;
  options.enabled = true;
  return options;
}

/// Genuine-shaped stream: fresh random challenges, ~half-weight accepted
/// responses, spread over a device population.
std::vector<std::pair<std::uint64_t, service::StreamObservation>> clean_stream() {
  std::vector<std::pair<std::uint64_t, service::StreamObservation>> stream;
  stream.reserve(kObservations);
  Rng rng(0xc1ea9);
  for (std::size_t i = 0; i < kObservations; ++i) {
    service::StreamObservation observation;
    observation.challenge = rng.next_u64();
    observation.guess_weight = 8 + rng.next_u64() % 9;
    observation.answered = true;
    observation.accepted = true;
    observation.distance = rng.next_u64() % 3;
    stream.emplace_back(i % kDevices, observation);
  }
  return stream;
}

/// The distance-oracle shape against one device: an answered weight-0
/// baseline then answered weight-1 probes of the same challenge stepping
/// +/-1 off its distance — every flag the classifier owns fires.
std::vector<std::pair<std::uint64_t, service::StreamObservation>> attack_stream() {
  std::vector<std::pair<std::uint64_t, service::StreamObservation>> stream;
  stream.reserve(kObservations);
  for (std::size_t i = 0; i < kObservations; ++i) {
    const std::size_t phase = i % 17;
    service::StreamObservation observation;
    observation.challenge = 9000 + i / 17;
    observation.guess_weight = phase == 0 ? 0 : 1;
    observation.answered = true;
    observation.accepted = false;
    observation.distance = phase == 0 ? 8 : (phase % 2 == 0 ? 9 : 7);
    stream.emplace_back(7, observation);
  }
  return stream;
}

const registry::Registry& fleet_registry() {
  static const registry::Registry reg = [] {
    registry::FleetSpec spec;
    spec.devices = kDevices;
    spec.stages = 5;
    spec.pairs = 32;
    spec.seed = 0x5ca1ab1e;
    return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
  }();
  return reg;
}

service::AuthServiceOptions service_options(bool detect) {
  service::AuthServiceOptions options;
  options.response_bits = 16;
  options.detector.enabled = detect;
  return options;
}

const std::vector<service::AuthRequest>& workload() {
  static const std::vector<service::AuthRequest> requests = [] {
    service::WorkloadSpec spec;
    spec.requests = kRequests;
    return service::synthesize_workload(fleet_registry(), service_options(false),
                                        spec);
  }();
  return requests;
}

double measure_observations_per_sec(
    const std::vector<std::pair<std::uint64_t, service::StreamObservation>>& stream) {
  service::StreamDetector detector{detector_options()};
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [device, observation] : stream) {
    detector.observe(device, observation);
  }
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(stream.size()) / elapsed.count();
}

void run() {
  bench::banner("bench_detector",
                "serving extension - stream-detector observation overhead");

  const auto clean = clean_stream();
  const auto attack = attack_stream();

  // Shape checks first: the classifier must separate the two streams.
  service::StreamDetector clean_detector{detector_options()};
  for (const auto& [device, observation] : clean) {
    clean_detector.observe(device, observation);
  }
  service::StreamDetector attack_detector{detector_options()};
  for (const auto& [device, observation] : attack) {
    attack_detector.observe(device, observation);
  }
  std::uint32_t worst_clean = 0;
  for (std::uint64_t device = 0; device < kDevices; ++device) {
    worst_clean = std::max(worst_clean, clean_detector.level(device));
  }

  TextTable table({"stream", "observations/s", "final level"});
  table.add_row({"clean", TextTable::num(measure_observations_per_sec(clean) / 1e6, 2) + "M",
                 std::to_string(worst_clean)});
  table.add_row({"attack", TextTable::num(measure_observations_per_sec(attack) / 1e6, 2) + "M",
                 std::to_string(attack_detector.level(7))});
  std::printf("%s\n", table.render().c_str());

  std::printf("shape check (clean stream never escalates): %s\n",
              worst_clean == 0 ? "HOLDS" : "VIOLATED");
  std::printf("shape check (attack stream hits the ladder cap): %s\n",
              attack_detector.level(7) == service::StreamDetector::kMaxLevel ? "HOLDS"
                                                                             : "VIOLATED");

  // Verdict parity: detection alone (no admission) must change nothing.
  const service::AuthService plain(&fleet_registry(), service_options(false));
  const service::AuthService watched(&fleet_registry(), service_options(true));
  const bool parity = service::verdict_digest(plain.verify_batch(workload())) ==
                      service::verdict_digest(watched.verify_batch(workload()));
  std::printf("shape check (detector-on verdict digest unchanged): %s\n",
              parity ? "HOLDS" : "VIOLATED");
}

void bm_observe_clean(benchmark::State& state) {
  const auto stream = clean_stream();
  for (auto _ : state) {
    service::StreamDetector detector{detector_options()};
    for (const auto& [device, observation] : stream) {
      detector.observe(device, observation);
    }
    benchmark::DoNotOptimize(detector.tracked_devices());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kObservations));
}
BENCHMARK(bm_observe_clean)->Unit(benchmark::kMillisecond);

void bm_observe_attack(benchmark::State& state) {
  const auto stream = attack_stream();
  for (auto _ : state) {
    service::StreamDetector detector{detector_options()};
    for (const auto& [device, observation] : stream) {
      detector.observe(device, observation);
    }
    benchmark::DoNotOptimize(detector.level(7));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kObservations));
}
BENCHMARK(bm_observe_attack)->Unit(benchmark::kMillisecond);

void bm_penalty_lookup(benchmark::State& state) {
  // The admission pre-pass read: one mutex acquire + hash lookup per
  // request, against a populated device table.
  service::StreamDetector detector{detector_options()};
  for (const auto& [device, observation] : clean_stream()) {
    detector.observe(device, observation);
  }
  std::uint64_t device = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.penalty(device++ % kDevices));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_penalty_lookup);

void bm_verify_batch(benchmark::State& state) {
  // End-to-end: the detector's pre+post passes riding the real batch path.
  const service::AuthService service(&fleet_registry(),
                                     service_options(state.range(0) != 0));
  service.verify_batch(workload());  // warm the enrollment cache
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.verify_batch(workload()));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRequests));
}
BENCHMARK(bm_verify_batch)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) { return ropuf::bench::bench_main(argc, argv, run); }

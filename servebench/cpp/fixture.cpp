#include "fixture.h"

#include <time.h>

#include <stdexcept>

#include "auth/auth.h"
#include "common/error.h"

namespace servebench {

using namespace ropuf;

const WorkloadConfig& workload_config(const std::string& name) {
  // 2048 devices is half the 4096-entry cache: 4096 would overflow some of
  // the cache's eight 512-entry shards and leak misses into the hot mix.
  // 32768 is 8x the cache, so uniform ids miss about 7 times in 8. The
  // open-loop rates are far below capacity, so nothing queues.
  static const std::vector<WorkloadConfig> table = {
      {"v1_hot", Protocol::kV1, 2048, 20000.0},
      {"v1_cold", Protocol::kV1, 32768, 10000.0},
      {"v2_proof", Protocol::kV2, 2048, 10000.0},
  };
  for (const WorkloadConfig& config : table) {
    if (config.name == name) return config;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

namespace {

/// ropuf's option parsing over a synthetic argument list.
cli::Args args_of(std::vector<std::string> words) {
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  return cli::Args(static_cast<int>(argv.size()), argv.data(), 0);
}

std::uint64_t mix_seed(std::uint64_t seed) {
  return 0x570ca57ull ^ (seed * 0x9e3779b97f4a7c15ull);
}

}  // namespace

registry::FleetSpec fleet_spec(const WorkloadConfig& config, std::uint64_t seed) {
  return cli::fleet_spec_from_args(args_of({"--devices", std::to_string(config.devices),
                                            "--seed", std::to_string(0x5ca1ab1eull + seed)}));
}

Fixture make_fixture(const std::string& workload, const std::string& registry_path,
                     std::uint64_t seed) {
  Fixture fixture{.config = workload_config(workload),
                  .seed = seed,
                  .options = cli::auth_options_from_args(args_of({})),
                  .registry = registry::Registry::load_file(registry_path),
                  .requests = {},
                  .request_frames = {},
                  .intents = {},
                  .expected = {}};
  ROPUF_REQUIRE(fixture.registry.device_count() == fixture.config.devices,
                "registry holds " + std::to_string(fixture.registry.device_count()) +
                    " devices, workload " + workload + " needs " +
                    std::to_string(fixture.config.devices));

  fixture.options.threads = ThreadBudget(1);  // --threads 1

  service::WorkloadSpec spec;  // 1% bit noise, 5% forged, 2% unknown ids
  spec.requests = kPoolRequests;
  spec.seed = mix_seed(seed);
  const service::AuthServiceOptions& options = fixture.options;
  fixture.expected.reserve(kPoolRequests);

  if (fixture.config.protocol == Protocol::kV1) {
    fixture.requests = service::synthesize_workload(fixture.registry, options, spec);
    // Offline verdicts from a private service; the verdict of a request is
    // a pure function of the request and the registry.
    const service::AuthService offline(&fixture.registry, options);
    fixture.request_frames.reserve(kPoolRequests);
    for (const service::AuthRequest& request : fixture.requests) {
      fixture.request_frames.push_back(net::encode_request_frame(request));
      fixture.expected.push_back(net::wire_response(offline.verify(request)));
    }
  } else {
    fixture.intents = service::synthesize_proof_workload(fixture.registry, spec);
    for (const service::ProofIntent& intent : fixture.intents) {
      net::WireResponse expected;
      if (!fixture.registry.contains(intent.device_id)) {
        expected.status = net::WireStatus::kUnknownDevice;
      } else {
        // auth::recover_key does not check the key-check value, so a prover
        // whose noise miscorrects holds a wrong key: has_key alone would
        // predict an accept the server rightly refuses.
        const bool accepted =
            intent.has_key && auth::derive_enrollment_key(fixture.registry.lookup(
                                  intent.device_id)) == intent.key;
        expected.status = accepted ? net::WireStatus::kAccept : net::WireStatus::kReject;
      }
      fixture.expected.push_back(expected);
    }
  }
  return fixture;
}

std::int64_t now_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::string required(const cli::Args& args, const std::string& key) {
  ROPUF_REQUIRE(args.has(key), "missing --" + key);
  return args.get(key, "");
}

double required_number(const cli::Args& args, const std::string& key) {
  ROPUF_REQUIRE(args.has(key), "missing --" + key);
  return args.number(key, 0.0);
}

}  // namespace servebench

// Shared fixture of the serving benchmark: the workload table, the request
// pool a seed expands to, and the offline verdict every online answer is
// checked against. The load generator (load.cpp) and the in-process stage
// tracer (stages.cpp) both build their inputs here, so the traced replay
// walks exactly the request stream the server was driven with.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cli_common.h"
#include "net/wire.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace servebench {

enum class Protocol { kV1, kV2 };

/// One traffic mix. Admission and the detector stay off (ropuf_serve's
/// defaults); the fleet size sets the enrollment cache's hit ratio.
struct WorkloadConfig {
  std::string name;
  Protocol protocol = Protocol::kV1;
  std::size_t devices = 0;
  double open_rate = 0.0;  ///< open-loop requests per second
};

/// The benchmark's workloads: v1_hot, v1_cold, v2_proof. Throws on others.
const WorkloadConfig& workload_config(const std::string& name);

/// Requests in the pool the generator cycles through (and warms up with).
inline constexpr std::size_t kPoolRequests = 32768;

/// The workload's fleet: ropuf_serve's fleet knobs at their defaults, with
/// the workload's size and a seed derived from the run's.
ropuf::registry::FleetSpec fleet_spec(const WorkloadConfig& config, std::uint64_t seed);

/// Everything one (workload, seed) run needs besides the server.
struct Fixture {
  WorkloadConfig config;
  std::uint64_t seed = 0;
  /// The service options ropuf_serve runs with: its own option parsing with
  /// no service flags, single-threaded (--threads 1).
  ropuf::service::AuthServiceOptions options;
  ropuf::registry::Registry registry;
  /// v1: the synthesized requests and their pre-encoded frames.
  std::vector<ropuf::service::AuthRequest> requests;
  std::vector<std::string> request_frames;
  /// v2: the synthesized proof intents (ids + prover key).
  std::vector<ropuf::service::ProofIntent> intents;
  /// The answer each pool entry must get on the wire. v1: the full
  /// {status, distance, bits} from AuthService::verify; v2: the status from
  /// registry membership and ProofIntent::has_key (bits are not compared).
  std::vector<ropuf::net::WireResponse> expected;
};

/// Loads the registry file and expands the seed into the request pool.
/// Deterministic: the same (workload, registry, seed) gives the same pool.
Fixture make_fixture(const std::string& workload, const std::string& registry_path,
                     std::uint64_t seed);

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

/// The value of a mandatory --key, as text and as a number.
std::string required(const ropuf::cli::Args& args, const std::string& key);
double required_number(const ropuf::cli::Args& args, const std::string& key);

}  // namespace servebench

// Option handling shared by the command-line front ends (ropuf_cli,
// ropuf_serve): the strict --key value argument map, the process-wide
// --threads budget, the --metrics-out/--trace-out observability session,
// and the registry/fleet minting knobs the serving and batch commands have
// in common. Header-only so each tool stays a single translation unit.
#pragma once

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <system_error>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace ropuf::cli {

/// Minimal --key value argument map. It remembers every key that has(),
/// get() or number() looked up (so lookups are not thread-safe), and a tool
/// rejects the flags it never read — a typo, or a flag that no longer
/// exists — instead of running with the defaults they were meant to set.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      ROPUF_REQUIRE(key.rfind("--", 0) == 0, "expected --option, got '" + key + "'");
      ROPUF_REQUIRE(i + 1 < argc, "missing value for " + key);
      values_[key.substr(2)] = argv[++i];
    }
  }

  bool has(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) > 0;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    read_.insert(key);
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  double number(const std::string& key, double fallback) const {
    read_.insert(key);
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    // Require the whole token to parse: "1.2abc" must be rejected, not
    // silently read as 1.2.
    std::size_t consumed = 0;
    double value = 0.0;
    try {
      value = std::stod(it->second, &consumed);
    } catch (const std::exception&) {
      ROPUF_REQUIRE(false, "non-numeric value '" + it->second + "' for --" + key);
    }
    ROPUF_REQUIRE(consumed == it->second.size(),
                  "trailing junk in value '" + it->second + "' for --" + key);
    return value;
  }

  /// Fails on the first given flag that nothing looked up. A tool calls
  /// this once it has read all of its options, before it does its work.
  void reject_unread() const {
    for (const auto& [key, value] : values_) {
      ROPUF_REQUIRE(read_.count(key) > 0, "unknown option --" + key);
    }
  }

 private:
  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// Strict decimal u64: the whole token, digits only (no sign, blank or
/// exponent), and no value past 2^64 - 1. Seeds, ids and counts parse here
/// rather than through Args::number, whose double keeps only 53 bits.
/// `what` names the value in the diagnostic ("--seed").
inline std::uint64_t parse_u64(const std::string& token, const std::string& what) {
  std::uint64_t value = 0;
  const char* const end = token.data() + token.size();
  const std::from_chars_result parsed = std::from_chars(token.data(), end, value);
  ROPUF_REQUIRE(parsed.ec == std::errc{} && parsed.ptr == end,
                what + " must be a decimal integer in [0, 2^64-1], got '" + token + "'");
  return value;
}

/// Strict non-negative integer option (seeds, ids, counts, bounds): exact
/// over the whole u64 range, so a negative or out-of-range value fails the
/// flag parse instead of wrapping through an unsigned cast.
inline std::uint64_t u64_arg(const Args& args, const std::string& key,
                             std::uint64_t fallback) {
  return args.has(key) ? parse_u64(args.get(key, ""), "--" + key) : fallback;
}

/// u64_arg for a value kept in an int (timeouts, trial counts): a value
/// past INT_MAX fails the flag parse instead of wrapping negative.
inline int int_arg(const Args& args, const std::string& key, int fallback) {
  constexpr int kMax = std::numeric_limits<int>::max();
  const std::uint64_t value = u64_arg(args, key, static_cast<std::uint64_t>(fallback));
  ROPUF_REQUIRE(value <= static_cast<std::uint64_t>(kMax),
                "--" + key + " must be at most " + std::to_string(kMax) + ", got " +
                    std::to_string(value));
  return static_cast<int>(value);
}

/// --port: 0 (a kernel-assigned ephemeral port) through 65535.
inline std::uint16_t port_arg(const Args& args) {
  const std::uint64_t port = u64_arg(args, "port", 0);
  ROPUF_REQUIRE(port <= 65535, "--port must be in [0, 65535], got " + std::to_string(port));
  return static_cast<std::uint16_t>(port);
}

/// --protocol: 1 (the CRP wire) or 2 (challenge-response), checked on the
/// parsed u64 so no larger value can wrap into either.
inline std::uint16_t protocol_arg(const Args& args) {
  const std::uint64_t protocol = u64_arg(args, "protocol", 1);
  ROPUF_REQUIRE(protocol == 1 || protocol == 2,
                "--protocol must be 1 or 2, got " + std::to_string(protocol));
  return static_cast<std::uint16_t>(protocol);
}

/// Shared --threads handling: a positive integer sets the process-wide
/// thread budget (overriding ROPUF_THREADS); outputs are bit-identical for
/// every value. Parsed exactly, like every other integer option.
inline void apply_thread_budget(const Args& args) {
  if (!args.has("threads")) return;
  const std::uint64_t threads = u64_arg(args, "threads", 0);
  ROPUF_REQUIRE(threads >= 1, "--threads must be a positive integer");
  set_thread_budget_override(static_cast<std::size_t>(threads));
}

/// Shared --metrics-out / --trace-out handling, available on every command.
/// Paths are validated strictly up front: an empty value or one that looks
/// like a swallowed option ("--...") is a usage error, and an unwritable
/// path fails the command *before* any work runs (an empty placeholder is
/// written eagerly, then overwritten with the real document at the end) —
/// never silently ignored.
class ObsSession {
 public:
  explicit ObsSession(const Args& args)
      : metrics_path_(validated_path(args, "metrics-out")),
        trace_path_(validated_path(args, "trace-out")) {
    if (!metrics_path_.empty()) {
      obs::write_text_file(metrics_path_, "");
      obs::set_metrics_enabled(true);
    }
    if (!trace_path_.empty()) {
      obs::write_text_file(trace_path_, "");
      obs::set_tracing_enabled(true);
    }
  }

  /// Writes the collected documents. Called once, after the command ran to
  /// completion; a failed command leaves the eager placeholders behind.
  void finish() const {
    if (!metrics_path_.empty()) {
      obs::write_text_file(metrics_path_,
                           obs::metrics_to_json(obs::Registry::instance().snapshot()));
    }
    if (!trace_path_.empty()) {
      obs::write_text_file(
          trace_path_, obs::trace_to_chrome_json(obs::TraceRecorder::instance().events()));
    }
  }

 private:
  static std::string validated_path(const Args& args, const std::string& key) {
    if (!args.has(key)) return {};
    const std::string path = args.get(key, "");
    ROPUF_REQUIRE(!path.empty(), "empty path for --" + key);
    ROPUF_REQUIRE(path.rfind("--", 0) != 0,
                  "suspicious path '" + path + "' for --" + key +
                      " (looks like an option; missing value?)");
    return path;
  }

  std::string metrics_path_;
  std::string trace_path_;
};

/// Shared fleet-minting knobs for the registry/service commands. The spec
/// identifies its fleet exactly, so the same options always reproduce the
/// same registry bytes regardless of --threads.
inline registry::FleetSpec fleet_spec_from_args(const Args& args) {
  registry::FleetSpec spec;
  spec.devices = static_cast<std::size_t>(u64_arg(args, "devices", 256));
  ROPUF_REQUIRE(spec.devices >= 1, "--devices must be >= 1");
  spec.stages = static_cast<std::size_t>(u64_arg(args, "stages", 5));
  spec.pairs = static_cast<std::size_t>(u64_arg(args, "pairs", 16));
  const std::string mode_name = args.get("mode", "case2");
  ROPUF_REQUIRE(mode_name == "case1" || mode_name == "case2", "mode must be case1|case2");
  spec.mode = mode_name == "case1" ? puf::SelectionCase::kSameConfig
                                   : puf::SelectionCase::kIndependent;
  spec.seed = u64_arg(args, "seed", 0x5ca1ab1e);
  spec.noise_sigma_ps = args.number("noise", 0.5);
  return spec;
}

/// Either loads --registry F or mints an in-memory fleet from the minting
/// knobs, so the registry/service commands work without a file on disk.
inline registry::Registry registry_from_args(const Args& args) {
  if (args.has("registry")) {
    return registry::Registry::load_file(args.get("registry", ""));
  }
  return registry::Registry::from_bytes(
      registry::build_fleet_registry(fleet_spec_from_args(args)));
}

/// Strict on|off option.
inline bool switch_arg(const Args& args, const std::string& key, bool fallback) {
  const std::string value = args.get(key, fallback ? "on" : "off");
  ROPUF_REQUIRE(value == "on" || value == "off", "--" + key + " must be on|off");
  return value == "on";
}

/// --bits and --max-hd: the response size and accept threshold every
/// verification command reads, auth-client included, which builds no
/// service but synthesizes its requests at --bits and prints both.
inline service::AuthServiceOptions verify_options_from_args(const Args& args) {
  service::AuthServiceOptions opts;
  opts.response_bits = static_cast<std::size_t>(u64_arg(args, "bits", 16));
  opts.max_distance = static_cast<std::size_t>(u64_arg(args, "max-hd", 2));
  return opts;
}

/// The options of a command that builds a service: the cache capacities
/// (--cache, --unknown-cache) and, when `v1` (the service verifies v1
/// requests), verify_options_from_args, the admission knobs (--rate-burst/
/// --rate-interval/--crp-budget/--reuse-budget, all default 0 = off, and
/// --admission-devices; see service/admission.h) and the stream-detector
/// switch (--detector on|off; see service/detector.h — suspicion escalates
/// the admission penalties, so the detector only bites when admission knobs
/// are configured too). v2 proofs meet none of those, so a command that
/// verifies only proofs passes false and leaves them unread, which makes
/// them errors.
inline service::AuthServiceOptions auth_options_from_args(const Args& args,
                                                          bool v1 = true) {
  service::AuthServiceOptions opts =
      v1 ? verify_options_from_args(args) : service::AuthServiceOptions{};
  opts.cache_capacity = static_cast<std::size_t>(u64_arg(args, "cache", 4096));
  opts.unknown_cache_capacity =
      static_cast<std::size_t>(u64_arg(args, "unknown-cache", 256));
  if (!v1) return opts;
  opts.admission.rate_burst = u64_arg(args, "rate-burst", 0);
  opts.admission.rate_interval = u64_arg(args, "rate-interval", 0);
  opts.admission.crp_budget = u64_arg(args, "crp-budget", 0);
  opts.admission.reuse_budget = u64_arg(args, "reuse-budget", 0);
  opts.admission.device_capacity =
      static_cast<std::size_t>(u64_arg(args, "admission-devices", 4096));
  opts.detector.enabled = switch_arg(args, "detector", false);
  return opts;
}

/// The verdict tally block shared by auth-batch and auth-client, so the
/// offline and online paths print byte-comparable stats: per-status counts,
/// accepted mean Hamming distance, and the order-sensitive verdict digest.
inline void print_verdict_stats(const std::vector<service::AuthVerdict>& verdicts) {
  std::size_t counts[service::kAuthStatusCount] = {};
  std::size_t accepted_distance = 0;
  for (const service::AuthVerdict& v : verdicts) {
    counts[static_cast<std::size_t>(v.status)] += 1;
    if (v.accepted()) accepted_distance += v.distance;
  }
  for (std::size_t s = 0; s < service::kAuthStatusCount; ++s) {
    std::printf("  %-17s %zu\n",
                service::auth_status_name(static_cast<service::AuthStatus>(s)),
                counts[s]);
  }
  const std::size_t accepted = counts[0];
  std::printf("accepted mean HD: %.4f\n",
              accepted == 0 ? 0.0
                            : static_cast<double>(accepted_distance) /
                                  static_cast<double>(accepted));
  std::printf("verdict digest: 0x%016llx\n",
              static_cast<unsigned long long>(service::verdict_digest(verdicts)));
}

}  // namespace ropuf::cli

// ropuf_serve — online authentication server (see docs/serving.md).
//
// Puts net::AuthServer in front of a service::AuthService over a registry
// that is either loaded from disk (--registry F) or minted in memory from
// the same fleet knobs as ropuf_cli registry-build. Serves the framed wire
// protocol of net/wire.h until SIGINT/SIGTERM, then drains gracefully and
// prints a one-line service summary.
//
//   ropuf_serve [--registry F | --devices N --seed S ...]
//               [--registry-watch on|off]
//               [--bind A] [--port P] [--port-file F]
//               [--bits B] [--max-hd D] [--cache C] [--unknown-cache C]
//               [--rate-burst N --rate-interval T] [--crp-budget N]
//               [--reuse-budget N] [--challenge-sketch N]
//               [--admission-devices N] [--reenroll-threshold N]
//               [--detector on|off] [--detector-window N]
//               [--detector-threshold N] [--detector-max-level N]
//               [--detector-decay N] [--detector-devices N]
//               [--threads N]
//               [--shards N]
//               [--max-connections N] [--max-pending N] [--max-batch N]
//               [--max-read-per-sweep N] [--read-deadline-ms N]
//               [--accept-backoff-ms N] [--drain-timeout-ms N]
//               [--nonce-seed S] [--max-sessions N]
//               [--metrics-out F.json] [--trace-out F.json]
//
// --port 0 (the default) binds a kernel-assigned ephemeral port;
// --port-file writes the resolved port as a single decimal line once the
// server is listening, so scripted callers (the ctest smoke test) can wait
// for the file instead of parsing stdout.
//
// --registry-watch on (the default whenever --registry is given) installs a
// SIGHUP handler: on signal, the base file and its `<base>.delta-*` siblings
// are re-read and installed as a new epoch without dropping a connection or
// splitting an in-flight batch (registry/epoch.h). A failed reload — file
// missing or corrupt mid-rewrite — keeps the current epoch serving and is
// reported on stdout and in net.reload_failures.
#include <csignal>
#include <cstdio>
#include <fstream>

#include "cli_common.h"
#include "common/error.h"
#include "net/server.h"
#include "registry/epoch.h"

namespace {

using namespace ropuf;
using namespace ropuf::cli;

/// Signal handling: each handler performs exactly one relaxed atomic store
/// (AuthServer::request_stop / request_reload), which is async-signal-safe.
/// The pointer is published before the handlers are installed and never
/// changes afterward.
net::AuthServer* g_server = nullptr;

void handle_stop_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

void handle_reload_signal(int) {
  if (g_server != nullptr) g_server->request_reload();
}

int serve(const Args& args) {
  const std::size_t shards = static_cast<std::size_t>(count_arg(args, "shards", 1));
  ROPUF_REQUIRE(shards > 0, "--shards must be positive");

  const bool from_file = args.has("registry");
  const std::string registry_path = args.get("registry", "");
  const std::string watch = args.get("registry-watch", from_file ? "on" : "off");
  ROPUF_REQUIRE(watch == "on" || watch == "off", "--registry-watch must be on or off");
  ROPUF_REQUIRE(watch == "off" || from_file, "--registry-watch on requires --registry");

  registry::EpochRegistry epochs = [&]() -> registry::EpochRegistry {
    if (from_file) {
      registry::EpochFileSet files = registry::load_epoch_files(registry_path);
      return registry::EpochRegistry(std::move(files.base), std::move(files.deltas));
    }
    return registry::EpochRegistry(registry::Registry::from_bytes(
        registry::build_fleet_registry(fleet_spec_from_args(args))));
  }();
  service::AuthServiceOptions svc_opts = auth_options_from_args(args);
  // Admission state partitions by device-id hash, one slice per reactor
  // shard, so concurrent shards rarely contend on one admission mutex while
  // every device still lands on one deterministic token bucket.
  svc_opts.admission_shards = shards;
  const service::AuthService svc(&epochs, svc_opts);

  net::ServerOptions opts;
  opts.shards = shards;
  opts.bind_address = args.get("bind", "127.0.0.1");
  opts.port = static_cast<std::uint16_t>(args.number("port", 0));
  // count_arg rejects negative values eagerly; a negative bound must fail
  // the flag parse, never wrap through an unsigned cast into a huge limit.
  opts.max_connections = static_cast<std::size_t>(count_arg(args, "max-connections", 256));
  opts.max_pending = static_cast<std::size_t>(count_arg(args, "max-pending", 1024));
  opts.max_batch = static_cast<std::size_t>(count_arg(args, "max-batch", 256));
  opts.max_read_per_sweep =
      static_cast<std::size_t>(count_arg(args, "max-read-per-sweep", 64 << 10));
  opts.read_deadline_ms = static_cast<int>(args.number("read-deadline-ms", 5000));
  opts.accept_backoff_ms = static_cast<int>(args.number("accept-backoff-ms", 100));
  opts.drain_timeout_ms = static_cast<int>(args.number("drain-timeout-ms", 2000));
  // v2 challenge nonces; the deterministic default serves reproducible test
  // harnesses, a production operator passes something unpredictable.
  if (args.has("nonce-seed")) {
    opts.nonce_seed = count_arg(args, "nonce-seed", 0);
  }
  opts.max_sessions = static_cast<std::size_t>(count_arg(args, "max-sessions", 1024));

  net::AuthServer server(&svc, opts);
  const std::uint16_t port = server.bind_and_listen();

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  if (watch == "on") {
    // The reload handler runs on shard 0's reactor thread between poll
    // sweeps, never in signal context — ordinary I/O and exceptions are
    // fine here. AuthServer swallows what we rethrow (after printing) into
    // net.reload_failures, so a bad file never kills the server.
    server.set_reload_handler([&epochs, registry_path]() {
      try {
        registry::EpochFileSet files = registry::load_epoch_files(registry_path);
        const std::size_t delta_count = files.deltas.size();
        epochs.install(std::move(files.base), std::move(files.deltas));
        std::printf("reloaded: epoch %llu (%zu devices, %zu deltas)\n",
                    static_cast<unsigned long long>(epochs.epoch()),
                    epochs.device_count(), delta_count);
        std::fflush(stdout);
      } catch (const std::exception& e) {
        std::printf("reload failed: %s\n", e.what());
        std::fflush(stdout);
        throw;
      }
    });
    struct sigaction reload {};
    reload.sa_handler = handle_reload_signal;
    ::sigaction(SIGHUP, &reload, nullptr);
  }

  if (args.has("port-file")) {
    const std::string path = args.get("port-file", "");
    std::ofstream file(path);
    ROPUF_REQUIRE(file.good(), "cannot open port file " + path);
    file << port << "\n";
    ROPUF_REQUIRE(file.flush().good(), "failed writing port file " + path);
  }
  if (server.shard_count() > 1) {
    std::printf("serving %zu devices on %s:%u (%zu shards, epoch %llu)\n",
                epochs.device_count(), opts.bind_address.c_str(), port,
                server.shard_count(), static_cast<unsigned long long>(epochs.epoch()));
  } else {
    std::printf("serving %zu devices on %s:%u (epoch %llu)\n", epochs.device_count(),
                opts.bind_address.c_str(), port,
                static_cast<unsigned long long>(epochs.epoch()));
  }
  std::fflush(stdout);

  server.run();
  // Record the per-device deny histograms for states still resident in the
  // admission slices, so --metrics-out sees the full abuse profile.
  svc.flush_admission_metrics();
  std::printf("drained: %llu requests served\n",
              static_cast<unsigned long long>(server.requests_served()));
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ropuf_serve [--registry F | --devices N --seed S ...]\n"
               "                   [--registry-watch on|off]\n"
               "                   [--bind A] [--port P] [--port-file F]\n"
               "                   [--bits B] [--max-hd D] [--cache C]\n"
               "                   [--unknown-cache C] [--threads N]\n"
               "                   [--rate-burst N --rate-interval T]\n"
               "                   [--crp-budget N] [--reuse-budget N]\n"
               "                   [--challenge-sketch N] [--admission-devices N]\n"
               "                   [--detector on|off] [--detector-window N]\n"
               "                   [--detector-threshold N] [--detector-max-level N]\n"
               "                   [--detector-decay N] [--detector-devices N]\n"
               "                   [--reenroll-threshold N]\n"
               "                   [--shards N]\n"
               "                   [--max-connections N] [--max-pending N]\n"
               "                   [--max-batch N] [--max-read-per-sweep N]\n"
               "                   [--read-deadline-ms N] [--accept-backoff-ms N]\n"
               "                   [--drain-timeout-ms N]\n"
               "                   [--nonce-seed S] [--max-sessions N]\n"
               "                   [--metrics-out F.json] [--trace-out F.json]\n"
               "serves the framed authentication protocol until SIGINT/SIGTERM,\n"
               "then drains gracefully; SIGHUP re-reads --registry and its\n"
               "delta segments as a new epoch (see docs/serving.md).\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, 1);
    if (args.has("help")) return usage();
    apply_thread_budget(args);
    const ObsSession obs_session(args);
    const int rc = serve(args);
    obs_session.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

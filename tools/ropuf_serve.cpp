// ropuf_serve — online authentication server (see docs/serving.md).
//
// Puts net::AuthServer in front of a service::AuthService over a registry
// that is either loaded from disk (--registry F) or minted in memory from
// the same fleet knobs as ropuf_cli registry-build. Serves the framed wire
// protocol of net/wire.h until SIGINT/SIGTERM, then drains gracefully and
// prints a one-line service summary.
//
//   ropuf_serve [--registry F | --devices N --seed S ...]
//               [--bind A] [--port P] [--port-file F]
//               [--bits B] [--max-hd D] [--cache C] [--unknown-cache C]
//               [--rate-burst N --rate-interval T] [--crp-budget N]
//               [--reuse-budget N] [--admission-devices N]
//               [--detector on|off]
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
// for the file instead of parsing stdout. A flag the server does not read
// is an error, reported before it binds.
//
// With --registry, SIGHUP re-reads the base file and its `<base>.delta-*`
// siblings and installs them as a new epoch without dropping a connection
// or splitting an in-flight batch (registry/epoch.h). A failed reload —
// file missing or corrupt mid-rewrite — keeps the current epoch serving and
// is reported on stdout and in net.reload_failures. A fleet minted in
// memory has no files to re-read, so SIGHUP is left at its default there.
#include <csignal>
#include <cstdio>
#include <fstream>

#include "cli_common.h"
#include "common/error.h"
#include "crypto/sha256.h"
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
  const std::size_t shards = static_cast<std::size_t>(u64_arg(args, "shards", 1));
  ROPUF_REQUIRE(shards > 0, "--shards must be positive");

  const bool from_file = args.has("registry");
  const std::string registry_path = args.get("registry", "");

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
  opts.port = port_arg(args);
  // u64_arg rejects negative values eagerly; a negative bound must fail
  // the flag parse, never wrap through an unsigned cast into a huge limit.
  opts.max_connections = static_cast<std::size_t>(u64_arg(args, "max-connections", 256));
  opts.max_pending = static_cast<std::size_t>(u64_arg(args, "max-pending", 1024));
  opts.max_batch = static_cast<std::size_t>(u64_arg(args, "max-batch", 256));
  opts.max_read_per_sweep =
      static_cast<std::size_t>(u64_arg(args, "max-read-per-sweep", 64 << 10));
  opts.read_deadline_ms = int_arg(args, "read-deadline-ms", 5000);
  opts.accept_backoff_ms = int_arg(args, "accept-backoff-ms", 100);
  opts.drain_timeout_ms = int_arg(args, "drain-timeout-ms", 2000);
  // v2 challenge nonces; the deterministic default serves reproducible test
  // harnesses, a production operator passes something unpredictable.
  if (args.has("nonce-seed")) {
    opts.nonce_seed = u64_arg(args, "nonce-seed", 0);
  }
  opts.max_sessions = static_cast<std::size_t>(u64_arg(args, "max-sessions", 1024));
  const bool write_port_file = args.has("port-file");
  const std::string port_file = args.get("port-file", "");
  args.reject_unread();

  net::AuthServer server(&svc, opts);
  const std::uint16_t port = server.bind_and_listen();

  g_server = &server;
  struct sigaction action {};
  action.sa_handler = handle_stop_signal;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  if (from_file) {
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

  if (write_port_file) {
    std::ofstream file(port_file);
    ROPUF_REQUIRE(file.good(), "cannot open port file " + port_file);
    file << port << "\n";
    ROPUF_REQUIRE(file.flush().good(), "failed writing port file " + port_file);
  }
  // The SHA-256 compression in use prices every v2 nonce and tag check.
  if (server.shard_count() > 1) {
    std::printf("serving %zu devices on %s:%u (%zu shards, epoch %llu, sha256 %s)\n",
                epochs.device_count(), opts.bind_address.c_str(), port,
                server.shard_count(), static_cast<unsigned long long>(epochs.epoch()),
                crypto::sha256_compression_name());
  } else {
    std::printf("serving %zu devices on %s:%u (epoch %llu, sha256 %s)\n",
                epochs.device_count(), opts.bind_address.c_str(), port,
                static_cast<unsigned long long>(epochs.epoch()),
                crypto::sha256_compression_name());
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
               "                   [--bind A] [--port P] [--port-file F]\n"
               "                   [--bits B] [--max-hd D] [--cache C]\n"
               "                   [--unknown-cache C] [--threads N]\n"
               "                   [--rate-burst N --rate-interval T]\n"
               "                   [--crp-budget N] [--reuse-budget N]\n"
               "                   [--admission-devices N] [--detector on|off]\n"
               "                   [--shards N]\n"
               "                   [--max-connections N] [--max-pending N]\n"
               "                   [--max-batch N] [--max-read-per-sweep N]\n"
               "                   [--read-deadline-ms N] [--accept-backoff-ms N]\n"
               "                   [--drain-timeout-ms N]\n"
               "                   [--nonce-seed S] [--max-sessions N]\n"
               "                   [--metrics-out F.json] [--trace-out F.json]\n"
               "serves the framed authentication protocol until SIGINT/SIGTERM,\n"
               "then drains gracefully; SIGHUP re-reads --registry and its\n"
               "delta segments as a new epoch (see docs/serving.md). a flag the\n"
               "server does not read is an error.\n");
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

// Serving extension: end-to-end wire-protocol load generation.
//
// Stands up the net/ authentication server (poll event loop + framed wire
// protocol) on a loopback ephemeral port and drives it with the pipelined
// client, measuring what the offline bench_auth_service cannot: the full
// request path — frame encode, TCP, frame extract, queue, verify_batch,
// response encode, TCP back. The offline batch engine is measured alongside
// so the table shows the serving overhead directly.
//
// Shape checks: online verdict digests must equal the offline digest for
// the same workload (the wire adds transport, never semantics), and every
// pipelined request must receive exactly one answer.
#include "bench_common.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/table.h"
#include "net/client.h"
#include "net/server.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace {

using namespace ropuf;

constexpr std::size_t kDevices = 512;
constexpr std::size_t kRequests = 8192;

const registry::Registry& fleet_registry() {
  static const registry::Registry reg = [] {
    registry::FleetSpec spec;
    spec.devices = kDevices;
    spec.stages = 5;
    spec.pairs = 64;
    spec.seed = 0x5ca1ab1e;
    return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
  }();
  return reg;
}

service::AuthServiceOptions service_options() {
  service::AuthServiceOptions options;
  options.response_bits = 32;
  options.max_distance = 4;
  options.cache_capacity = 4096;
  return options;
}

const std::vector<service::AuthRequest>& workload() {
  static const std::vector<service::AuthRequest> requests = [] {
    service::WorkloadSpec spec;
    spec.requests = kRequests;
    return service::synthesize_workload(fleet_registry(), service_options(), spec);
  }();
  return requests;
}

/// Server on its own thread for the duration of one measurement; run()
/// spawns the extra reactors itself when options ask for shards.
class ScopedServer {
 public:
  explicit ScopedServer(const service::AuthService* service,
                        net::ServerOptions options = fast_options())
      : server_(service, std::move(options)) {
    port_ = server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
  }
  ~ScopedServer() {
    server_.request_stop();
    thread_.join();
  }
  std::uint16_t port() const { return port_; }

  static net::ServerOptions fast_options() {
    net::ServerOptions options;
    options.poll_interval_ms = 1;
    return options;
  }
  /// Connection k lands on shard k % N (round-robin placement), so the
  /// scaling family measures N busy reactors.
  static net::ServerOptions sharded_options(std::size_t shards) {
    net::ServerOptions options = fast_options();
    options.shards = shards;
    return options;
  }

 private:
  net::AuthServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// A service whose verify path runs inline (thread budget 1): in the shard
/// scaling family the reactor threads ARE the parallelism, and an inline
/// budget keeps them off the shared pool's one-region-at-a-time mutex.
service::AuthServiceOptions inline_service_options() {
  service::AuthServiceOptions options = service_options();
  options.threads = ThreadBudget(1);
  return options;
}

std::vector<net::WireResponse> drive(std::uint16_t port, std::size_t window) {
  net::ClientOptions options;
  options.port = port;
  options.window = window;
  net::AuthClient client(options);
  client.connect();
  return client.send_batch(workload());
}

/// Splits the workload over `connections` concurrent pipelined clients and
/// reassembles the responses into workload order (contiguous slices, so
/// concatenation in connection order restores it). Fresh connections every
/// call keep round-robin placement identical across iterations.
std::vector<net::WireResponse> drive_many(std::uint16_t port, std::size_t window,
                                          std::size_t connections) {
  const std::vector<service::AuthRequest>& all = workload();
  const std::size_t per = (all.size() + connections - 1) / connections;
  std::vector<std::vector<net::WireResponse>> parts(connections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {
      const std::size_t begin = std::min(all.size(), c * per);
      const std::size_t end = std::min(all.size(), begin + per);
      if (begin == end) return;
      net::ClientOptions options;
      options.port = port;
      options.window = window;
      net::AuthClient client(options);
      client.connect();
      parts[c] = client.send_batch({all.begin() + static_cast<std::ptrdiff_t>(begin),
                                    all.begin() + static_cast<std::ptrdiff_t>(end)});
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<net::WireResponse> out;
  out.reserve(all.size());
  for (const std::vector<net::WireResponse>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

constexpr std::size_t kScalingConnections = 4;
constexpr std::size_t kScalingWindow = 128;

void run() {
  bench::banner("bench_auth_server",
                "serving extension - end-to-end wire-protocol throughput");

  std::printf("registry: %zu devices   workload: %zu requests   transport: "
              "loopback TCP\n\n",
              fleet_registry().device_count(), workload().size());

  const service::AuthService service(&fleet_registry(), service_options());
  const std::uint64_t offline_digest =
      service::verdict_digest(service.verify_batch(workload()));

  const auto offline_start = std::chrono::steady_clock::now();
  service.verify_batch(workload());
  const std::chrono::duration<double> offline_elapsed =
      std::chrono::steady_clock::now() - offline_start;
  const double offline_rate = static_cast<double>(kRequests) / offline_elapsed.count();

  TextTable table({"window", "online req/s", "offline req/s", "wire overhead"});
  bool digests_match = true;
  bool every_request_answered = true;
  for (const std::size_t window : {16u, 128u, 512u}) {
    const ScopedServer server(&service);
    drive(server.port(), window);  // warm-up: fills the enrollment cache
    const auto start = std::chrono::steady_clock::now();
    const std::vector<net::WireResponse> responses = drive(server.port(), window);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double rate = static_cast<double>(responses.size()) / elapsed.count();

    if (responses.size() != workload().size()) every_request_answered = false;
    std::vector<service::AuthVerdict> verdicts;
    verdicts.reserve(responses.size());
    for (const net::WireResponse& response : responses) {
      if (response.status > net::WireStatus::kMalformedRequest) continue;
      verdicts.push_back(net::auth_verdict(response));
    }
    if (verdicts.size() != responses.size() ||
        service::verdict_digest(verdicts) != offline_digest) {
      digests_match = false;
    }
    table.add_row({std::to_string(window), TextTable::num(rate / 1000.0, 1) + "k",
                   TextTable::num(offline_rate / 1000.0, 1) + "k",
                   TextTable::num(offline_rate / rate, 2) + "x"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf("shape check (online digest == offline digest): %s\n",
              digests_match ? "HOLDS" : "VIOLATED");
  std::printf("shape check (every pipelined request answered once): %s\n",
              every_request_answered ? "HOLDS" : "VIOLATED");

  // Multi-reactor scaling: N shards, inline verification, 4 concurrent
  // pipelined connections placed round-robin.
  TextTable shard_table({"shards", "online req/s", "speedup"});
  bool shard_digests_match = true;
  double one_shard_rate = 0.0;
  double four_shard_rate = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    const service::AuthService sharded_service(&fleet_registry(), inline_service_options());
    const ScopedServer server(&sharded_service, ScopedServer::sharded_options(shards));
    drive_many(server.port(), kScalingWindow, kScalingConnections);  // warm-up
    const auto start = std::chrono::steady_clock::now();
    const std::vector<net::WireResponse> responses =
        drive_many(server.port(), kScalingWindow, kScalingConnections);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    const double rate = static_cast<double>(responses.size()) / elapsed.count();
    if (shards == 1) one_shard_rate = rate;
    if (shards == 4) four_shard_rate = rate;

    std::vector<service::AuthVerdict> verdicts;
    verdicts.reserve(responses.size());
    for (const net::WireResponse& response : responses) {
      if (response.status > net::WireStatus::kMalformedRequest) continue;
      verdicts.push_back(net::auth_verdict(response));
    }
    if (responses.size() != workload().size() ||
        verdicts.size() != responses.size() ||
        service::verdict_digest(verdicts) != offline_digest) {
      shard_digests_match = false;
    }
    shard_table.add_row({std::to_string(shards), TextTable::num(rate / 1000.0, 1) + "k",
                         TextTable::num(rate / one_shard_rate, 2) + "x"});
  }
  std::printf("%s\n", shard_table.render().c_str());
  std::printf("shape check (sharded digests == offline digest at 1/2/4 shards): %s\n",
              shard_digests_match ? "HOLDS" : "VIOLATED");
  // The scaling check needs the cores to exist: with fewer than 4 hardware
  // threads four reactors time-slice instead of running in parallel, so the
  // check reports the measured ratio without asserting (the CI perf gate
  // applies the same hardware awareness via the JSON context's num_cpus).
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores >= 4) {
    std::printf("shape check (4-shard throughput >= 2.5x single shard): %s (%.2fx)\n",
                four_shard_rate >= 2.5 * one_shard_rate ? "HOLDS" : "VIOLATED",
                four_shard_rate / one_shard_rate);
  } else {
    std::printf("shape check (4-shard throughput >= 2.5x single shard): "
                "SKIPPED (%u hardware threads, measured %.2fx)\n",
                cores, four_shard_rate / one_shard_rate);
  }
}

void bm_online_round_trips(benchmark::State& state) {
  static const service::AuthService service(&fleet_registry(), service_options());
  const ScopedServer server(&service);
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drive(server.port(), window));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRequests));
}
BENCHMARK(bm_online_round_trips)->Arg(16)->Arg(128)->Unit(benchmark::kMillisecond);

/// The shard scaling family: 4 concurrent connections split the workload
/// over an N-shard server with inline verification. Names land in the
/// baseline JSON as bm_online_round_trips/shards:N; the CI perf gate checks
/// the 4-shard / 1-shard ratio when the host has the cores for it.
void bm_online_round_trips(benchmark::State& state, std::size_t shards) {
  const service::AuthService service(&fleet_registry(), inline_service_options());
  const ScopedServer server(&service, ScopedServer::sharded_options(shards));
  drive_many(server.port(), kScalingWindow, kScalingConnections);  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        drive_many(server.port(), kScalingWindow, kScalingConnections));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRequests));
}
// UseRealTime: the bench thread only joins the sender threads, so CPU-time
// rates would be meaningless — throughput is a wall-clock property here.
BENCHMARK_CAPTURE(bm_online_round_trips, shards:1, 1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(bm_online_round_trips, shards:2, 2)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(bm_online_round_trips, shards:4, 4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void bm_frame_encode_decode(benchmark::State& state) {
  // The pure wire cost per request: encode, extract, decode.
  const service::AuthRequest& request = workload().front();
  for (auto _ : state) {
    const std::string frame = net::encode_request_frame(request);
    const net::ExtractResult result = net::try_extract_frame(frame);
    benchmark::DoNotOptimize(net::decode_request_payload(result.frame.payload));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_frame_encode_decode);

}  // namespace

int main(int argc, char** argv) { return ropuf::bench::bench_main(argc, argv, run); }

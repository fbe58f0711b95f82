// Protocol-v2 cryptographic pipeline: fuzzy-extractor Gen/Rep, HMAC-SHA256
// and the v2 challenge-response wire exchange, measured side by side with
// the v1 CRP round trip.
//
// The v2 exchange costs two wire round trips (request -> challenge,
// proof -> response) plus one HMAC verification per request where v1 costs
// one round trip plus a Hamming-distance compare — this bench prints that
// overhead directly, next to the enrollment-time Gen cost and the
// prover-side Rep cost that amortize it.
//
// Shape checks: the online v2 verdict digest must equal the offline
// verify_proof_batch digest for the same intents (the wire adds transport,
// never semantics), every intent must be answered exactly once, and a
// replayed proof transcript must reject.
#include "bench_common.h"

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "auth/auth.h"
#include "common/rng.h"
#include "common/table.h"
#include "crypto/hmac.h"
#include "net/client.h"
#include "net/server.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace {

using namespace ropuf;

constexpr std::size_t kDevices = 512;
constexpr std::size_t kRequests = 2048;

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

service::WorkloadSpec workload_spec() {
  service::WorkloadSpec spec;
  spec.requests = kRequests;
  return spec;
}

const std::vector<service::ProofIntent>& proof_workload() {
  static const std::vector<service::ProofIntent> intents =
      service::synthesize_proof_workload(fleet_registry(), workload_spec());
  return intents;
}

const std::vector<service::AuthRequest>& crp_workload() {
  static const std::vector<service::AuthRequest> requests =
      service::synthesize_workload(fleet_registry(), service_options(),
                                   workload_spec());
  return requests;
}

/// The offline reference for the online v2 exchange: the same intents
/// through verify_proof_batch with locally minted nonces. A proof verdict
/// is a pure function of (record, nonce, ids, tag) with the tag bound to
/// the nonce, so the nonce values drop out of the digest.
std::vector<service::ProofRequest> reference_proofs() {
  auth::NonceFactory nonces(0x0ff11e);
  std::vector<service::ProofRequest> proofs;
  proofs.reserve(proof_workload().size());
  for (const service::ProofIntent& intent : proof_workload()) {
    service::ProofRequest request;
    request.request_id = intent.request_id;
    request.device_id = intent.device_id;
    request.nonce = nonces.next(intent.device_id, intent.request_id);
    if (intent.has_key) {
      request.tag = auth::prove(intent.key, request.nonce, intent.request_id,
                                intent.device_id);
    }
    proofs.push_back(request);
  }
  return proofs;
}

/// An un-provisioned copy of one fleet enrollment — the Gen bench input.
puf::ConfigurableEnrollment bare_enrollment() {
  puf::ConfigurableEnrollment enrollment =
      fleet_registry().lookup(fleet_registry().device_id_at(0));
  enrollment.auth_code_id = auth::kCodeNone;
  enrollment.auth_helper.clear();
  enrollment.auth_key_check = {};
  return enrollment;
}

/// Server on its own thread for the duration of one measurement.
class ScopedServer {
 public:
  explicit ScopedServer(const service::AuthService* service)
      : server_(service, fast_options()) {
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

 private:
  net::AuthServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

net::AuthClient v2_client(std::uint16_t port, std::size_t window = 128) {
  net::ClientOptions options;
  options.port = port;
  options.window = window;
  net::AuthClient client(options);
  client.connect();
  client.negotiate();
  return client;
}

std::vector<net::WireResponse> drive_v2(std::uint16_t port) {
  net::AuthClient client = v2_client(port);
  return client.send_proof_batch(proof_workload());
}

std::vector<net::WireResponse> drive_v1(std::uint16_t port) {
  net::ClientOptions options;
  options.port = port;
  options.window = 128;
  net::AuthClient client(options);
  client.connect();
  return client.send_batch(crp_workload());
}

/// Times one call and returns items/second.
template <typename Fn>
double rate_of(std::size_t items, const Fn& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return static_cast<double>(items) / elapsed.count();
}

void run() {
  bench::banner("bench_crypto",
                "protocol v2 crypto pipeline - fuzzy Gen/Rep, HMAC, wire exchange");

  std::printf("registry: %zu devices   workload: %zu requests   transport: "
              "loopback TCP\n\n",
              fleet_registry().device_count(), proof_workload().size());

  // Primitive rates: enrollment-time Gen, prover-side Rep, one HMAC tag.
  const puf::ConfigurableEnrollment bare = bare_enrollment();
  constexpr std::size_t kPrimitiveIters = 2000;
  const double gen_rate = rate_of(kPrimitiveIters, [&] {
    for (std::size_t i = 0; i < kPrimitiveIters; ++i) {
      puf::ConfigurableEnrollment e = bare;
      Rng rng(0x6e6 + i);
      auth::provision_auth(e, rng);
      benchmark::DoNotOptimize(e.auth_helper.size());
    }
  });
  puf::ConfigurableEnrollment provisioned = bare;
  {
    Rng rng(0x6e6);
    auth::provision_auth(provisioned, rng);
  }
  BitVec noisy = provisioned.response();
  noisy.set(1, !noisy.get(1));  // one in-radius flip: the common Rep input
  const double rep_rate = rate_of(kPrimitiveIters, [&] {
    for (std::size_t i = 0; i < kPrimitiveIters; ++i) {
      benchmark::DoNotOptimize(auth::recover_key(noisy, provisioned));
    }
  });
  const std::string message(32, 'm');
  const std::string key(32, 'k');
  constexpr std::size_t kHmacIters = 200000;
  const double hmac_rate = rate_of(kHmacIters, [&] {
    for (std::size_t i = 0; i < kHmacIters; ++i) {
      benchmark::DoNotOptimize(crypto::hmac_sha256(key, message));
    }
  });

  // The compression row says which SHA-256 implementation priced the rest.
  TextTable primitive_table({"primitive", "ops/s"});
  primitive_table.add_row({"SHA-256 compression in use", crypto::sha256_compression_name()});
  primitive_table.add_row({"fuzzy Gen (provision, 64 pairs)",
                           TextTable::num(gen_rate / 1000.0, 1) + "k"});
  primitive_table.add_row({"fuzzy Rep (recover, 1 flip)",
                           TextTable::num(rep_rate / 1000.0, 1) + "k"});
  primitive_table.add_row({"HMAC-SHA256 (32-byte message)",
                           TextTable::num(hmac_rate / 1000.0, 1) + "k"});
  std::printf("%s\n", primitive_table.render().c_str());

  // v1 CRP round trip vs the v2 challenge-response exchange, same fleet,
  // same request count, one pipelined connection each.
  const service::AuthService service(&fleet_registry(), service_options());
  const std::uint64_t offline_digest = [&] {
    std::vector<service::AuthVerdict> verdicts =
        service.verify_proof_batch(reference_proofs());
    return service::verdict_digest(verdicts);
  }();

  TextTable wire_table({"protocol", "online req/s", "round trips/req"});
  bool v2_digest_matches = true;
  bool every_intent_answered = true;
  double v1_rate = 0.0;
  double v2_rate = 0.0;
  {
    const ScopedServer server(&service);
    drive_v1(server.port());  // warm-up: fills the enrollment cache
    v1_rate = rate_of(kRequests, [&] { drive_v1(server.port()); });
    wire_table.add_row({"v1 CRP", TextTable::num(v1_rate / 1000.0, 1) + "k", "1"});
  }
  {
    const ScopedServer server(&service);
    std::vector<net::WireResponse> responses;
    drive_v2(server.port());  // warm-up
    v2_rate = rate_of(kRequests, [&] { responses = drive_v2(server.port()); });
    wire_table.add_row({"v2 challenge-response",
                        TextTable::num(v2_rate / 1000.0, 1) + "k", "2"});

    if (responses.size() != proof_workload().size()) every_intent_answered = false;
    std::vector<service::AuthVerdict> verdicts;
    verdicts.reserve(responses.size());
    for (const net::WireResponse& response : responses) {
      if (response.status > net::WireStatus::kMalformedRequest) continue;
      verdicts.push_back(net::auth_verdict(response));
    }
    if (verdicts.size() != responses.size() ||
        service::verdict_digest(verdicts) != offline_digest) {
      v2_digest_matches = false;
    }
  }
  std::printf("%s\n", wire_table.render().c_str());
  std::printf("v2/v1 round-trip cost: %.2fx\n\n", v1_rate / v2_rate);

  // Replay shape check: a recorded proof transcript must be worthless.
  bool replay_rejected = false;
  {
    const ScopedServer server(&service);
    net::AuthClient client = v2_client(server.port());
    const service::ProofIntent* legit = nullptr;
    for (const service::ProofIntent& intent : proof_workload()) {
      if (intent.has_key) { legit = &intent; break; }
    }
    client.send_raw(net::encode_request_frame_v2(legit->request_id, legit->device_id));
    net::AuthClient::RawFrame frame = client.recv_frame();
    const net::ChallengePayload challenge =
        net::decode_challenge_payload(frame.payload);
    const std::string proof_bytes = net::encode_proof_frame(
        legit->request_id, auth::prove(legit->key, challenge.nonce,
                                       legit->request_id, legit->device_id));
    client.send_raw(proof_bytes);
    const net::V2Response first =
        net::decode_response_payload_v2(client.recv_frame().payload);
    client.send_raw(proof_bytes);  // verbatim replay
    const net::V2Response replay =
        net::decode_response_payload_v2(client.recv_frame().payload);
    replay_rejected = first.response.status == net::WireStatus::kAccept &&
                      replay.response.status == net::WireStatus::kReject;
  }

  std::printf("shape check (v2 online digest == offline proof digest): %s\n",
              v2_digest_matches ? "HOLDS" : "VIOLATED");
  std::printf("shape check (every proof intent answered once): %s\n",
              every_intent_answered ? "HOLDS" : "VIOLATED");
  std::printf("shape check (replayed proof transcript rejects): %s\n",
              replay_rejected ? "HOLDS" : "VIOLATED");
}

void bm_hmac_sha256(benchmark::State& state) {
  const std::string key(32, 'k');
  const std::string message(static_cast<std::size_t>(state.range(0)), 'm');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmac_sha256(key, message));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(bm_hmac_sha256)->Arg(32)->Arg(1024);

void bm_hmac_key_mac(benchmark::State& state) {
  const std::vector<std::uint8_t> key(32, 'k');
  const std::vector<std::uint8_t> message(32, 'm');
  const crypto::HmacSha256Key key_object(key.data(), key.size());
  for (auto _ : state) {
    benchmark::DoNotOptimize(key_object.mac(message.data(), message.size()));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_hmac_key_mac);

void bm_nonce_next(benchmark::State& state) {
  auth::NonceFactory nonces(0x0ff11e);
  std::uint64_t request_id = 0;
  for (auto _ : state) {
    ++request_id;
    benchmark::DoNotOptimize(nonces.next(request_id % kDevices, request_id));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_nonce_next);

void bm_fuzzy_gen(benchmark::State& state) {
  const puf::ConfigurableEnrollment bare = bare_enrollment();
  std::uint64_t seed = 0;
  for (auto _ : state) {
    puf::ConfigurableEnrollment e = bare;
    Rng rng(0x6e6 + seed++);
    auth::provision_auth(e, rng);
    benchmark::DoNotOptimize(e.auth_helper.size());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_fuzzy_gen);

void bm_fuzzy_rep(benchmark::State& state) {
  puf::ConfigurableEnrollment enrollment = bare_enrollment();
  Rng rng(0x6e6);
  auth::provision_auth(enrollment, rng);
  BitVec noisy = enrollment.response();
  noisy.set(1, !noisy.get(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(auth::recover_key(noisy, enrollment));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_fuzzy_rep);

void bm_proof_verify(benchmark::State& state) {
  static const service::AuthService service(&fleet_registry(), service_options());
  static const std::vector<service::ProofRequest> proofs = reference_proofs();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(service.verify_proof(proofs[i++ % proofs.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(bm_proof_verify);

void bm_online_v1_round_trips(benchmark::State& state) {
  static const service::AuthService service(&fleet_registry(), service_options());
  const ScopedServer server(&service);
  drive_v1(server.port());  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(drive_v1(server.port()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRequests));
}
BENCHMARK(bm_online_v1_round_trips)->Unit(benchmark::kMillisecond)->UseRealTime();

void bm_online_v2_round_trips(benchmark::State& state) {
  static const service::AuthService service(&fleet_registry(), service_options());
  const ScopedServer server(&service);
  drive_v2(server.port());  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(drive_v2(server.port()));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kRequests));
}
BENCHMARK(bm_online_v2_round_trips)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

int main(int argc, char** argv) { return ropuf::bench::bench_main(argc, argv, run); }

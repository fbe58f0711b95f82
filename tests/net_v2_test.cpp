// Protocol-v2 tests over real loopback sockets: hello negotiation and the
// v1 fallback, the challenge/proof exchange end to end, replay and
// stale-nonce rejection, the per-connection session bound, out-of-order
// completion by request id, and verdict parity with the offline proof
// batch engine across reactor shard counts and thread budgets. Malformed
// v2 traffic is crafted byte-by-byte (valid CRCs, wrong payloads) to pin
// the degradation answers docs/protocol_v2.md promises.
#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "auth/auth.h"
#include "common/error.h"
#include "common/parallel.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "registry/format.h"
#include "registry/registry.h"
#include "service/auth_service.h"

namespace {

using namespace ropuf;

registry::Registry small_registry(std::size_t devices = 24) {
  registry::FleetSpec spec;
  spec.devices = devices;
  spec.stages = 5;
  spec.pairs = 16;
  spec.seed = 0x5e12e;
  return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
}

/// Registry + service + server + loop thread, torn down in order.
class ServerHarness {
 public:
  explicit ServerHarness(net::ServerOptions options = {},
                         service::AuthServiceOptions auth_options = {})
      : registry_(small_registry()),
        service_(&registry_, auth_options),
        server_(&service_, fast(options)) {
    port_ = server_.bind_and_listen();
    thread_ = std::thread([this] { server_.run(); });
  }

  ~ServerHarness() {
    server_.request_stop();
    thread_.join();
  }

  const registry::Registry& registry() const { return registry_; }

  net::AuthClient client(std::size_t window = 128) const {
    net::ClientOptions options;
    options.port = port_;
    options.window = window;
    net::AuthClient c(options);
    c.connect();
    return c;
  }

 private:
  /// Tests poll fast regardless of what a test case configures.
  static net::ServerOptions fast(net::ServerOptions options) {
    options.port = 0;
    options.poll_interval_ms = 2;
    return options;
  }

  registry::Registry registry_;
  service::AuthService service_;
  net::AuthServer server_;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

/// Hand-builds a frame with a VALID header and CRC around an arbitrary
/// payload — the escape hatch for payloads the public encoders refuse to
/// produce (wrong sizes), so the tests reach the payload-decode error paths
/// rather than dying at the CRC check.
std::string raw_frame(net::FrameType type, std::uint16_t version,
                      const std::string& payload) {
  registry::ByteWriter header;
  header.u32(net::kFrameMagic);
  header.u16(version);
  header.u16(static_cast<std::uint16_t>(type));
  header.u32(static_cast<std::uint32_t>(payload.size()));
  header.u32(registry::crc32(payload));
  std::string frame = header.take();
  frame.append(payload);
  return frame;
}

/// The enrolled key for one fleet device — what a legitimate prover holds
/// after a clean Rep (the noisy-path recovery is crypto_auth_property_test's
/// subject; here the wire machinery is under test).
crypto::Sha256Digest enrolled_key(const registry::Registry& registry,
                                  std::uint64_t device_id) {
  const std::optional<crypto::Sha256Digest> key =
      auth::derive_enrollment_key(registry.lookup(device_id));
  EXPECT_TRUE(key.has_value()) << "device " << device_id << " not provisioned";
  return key.value_or(crypto::Sha256Digest{});
}

/// Minimal scripted peer for client-side negotiation tests: accepts one
/// connection, reads the client's hello, answers with a canned byte string
/// and closes. Stands in for pre-v2 and protocol-violating servers.
class ScriptedServer {
 public:
  explicit ScriptedServer(std::string reply) : reply_(std::move(reply)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      // One client hello: 16-byte header + 2-byte payload.
      char buf[64];
      std::size_t got = 0;
      while (got < net::kFrameHeaderBytes + 2) {
        const ssize_t n = ::read(fd, buf, sizeof(buf));
        if (n <= 0) break;
        got += static_cast<std::size_t>(n);
      }
      const ssize_t wrote = ::write(fd, reply_.data(), reply_.size());
      (void)wrote;
      ::close(fd);
    });
  }

  ~ScriptedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  net::AuthClient client() const {
    net::ClientOptions options;
    options.port = port_;
    net::AuthClient c(options);
    c.connect();
    return c;
  }

 private:
  std::string reply_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread thread_;
};

// ---------------------------------------------------------------- negotiation

TEST(NetV2, NegotiatePinsMinOfAdvertisedAndServerMax) {
  ServerHarness harness;
  {  // The library client advertises kWireMaxVersion and lands on v2.
    net::AuthClient client = harness.client();
    EXPECT_EQ(client.version(), net::kWireVersion);
    EXPECT_EQ(client.negotiate(), net::kWireVersionV2);
    EXPECT_EQ(client.version(), net::kWireVersionV2);
  }
  {  // A v1-only peer advertising 1 is pinned to 1, not upgraded.
    net::AuthClient client = harness.client();
    client.send_raw(net::encode_client_hello(1));
    const net::AuthClient::RawFrame hello = client.recv_frame();
    ASSERT_EQ(hello.type, net::FrameType::kServerHello);
    EXPECT_EQ(net::decode_hello_payload(hello.payload), 1);
  }
  {  // A future client advertising past the server's max pins at OUR max.
    net::AuthClient client = harness.client();
    client.send_raw(net::encode_client_hello(99));
    const net::AuthClient::RawFrame hello = client.recv_frame();
    ASSERT_EQ(hello.type, net::FrameType::kServerHello);
    EXPECT_EQ(net::decode_hello_payload(hello.payload), net::kWireMaxVersion);
  }
}

TEST(NetV2, MalformedHelloAnswersBadFrameAndKeepsTheConnection) {
  ServerHarness harness;
  net::AuthClient client = harness.client();

  // A hello with a wrong-size payload (valid CRC) must classify as a bad
  // frame, not close the stream.
  client.send_raw(raw_frame(net::FrameType::kClientHello, net::kWireVersion, "x"));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);

  // Advertised version 0 is nonsense the decoder rejects the same way.
  client.send_raw(net::encode_client_hello(0));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);

  // The connection survived both: a real negotiation still succeeds.
  EXPECT_EQ(client.negotiate(), net::kWireVersionV2);
}

TEST(NetV2, HelloMidStreamRePinsTheConnection) {
  ServerHarness harness;
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  // Downgrade mid-stream: a second hello re-pins to v1...
  client.send_raw(net::encode_client_hello(1));
  const net::AuthClient::RawFrame hello = client.recv_frame();
  ASSERT_EQ(hello.type, net::FrameType::kServerHello);
  EXPECT_EQ(net::decode_hello_payload(hello.payload), 1);

  // ...after which a v2 request is refused like on any unpinned connection.
  client.send_raw(net::encode_request_frame_v2(1, harness.registry().device_id_at(0)));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);
}

TEST(NetV2, HelloReplyWaitsBehindEarlierVerdicts) {
  // One ordering rule for every answer: a hello pipelined between two v1
  // requests is answered between their verdicts, not ahead of them.
  ServerHarness harness;
  service::WorkloadSpec spec;
  spec.requests = 2;
  const std::vector<service::AuthRequest> requests =
      service::synthesize_workload(harness.registry(), {}, spec);
  const service::AuthService offline(&harness.registry(), {});
  const auto expect_verdict = [&](const net::AuthClient::RawFrame& frame,
                                  const service::AuthRequest& request) {
    ASSERT_EQ(frame.type, net::FrameType::kAuthResponse);
    ASSERT_EQ(frame.version, net::kWireVersion);
    const net::WireResponse want = net::wire_response(offline.verify(request));
    const net::WireResponse got = net::decode_response_payload(frame.payload);
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.distance, want.distance);
    EXPECT_EQ(got.response_bits, want.response_bits);
  };

  net::AuthClient client = harness.client();
  client.send_raw(net::encode_request_frame(requests[0]) +
                  net::encode_client_hello(net::kWireMaxVersion) +
                  net::encode_request_frame(requests[1]));
  expect_verdict(client.recv_frame(), requests[0]);
  const net::AuthClient::RawFrame hello = client.recv_frame();
  ASSERT_EQ(hello.type, net::FrameType::kServerHello);
  EXPECT_EQ(net::decode_hello_payload(hello.payload), net::kWireVersionV2);
  expect_verdict(client.recv_frame(), requests[1]);
}

TEST(NetV2, ClientFallsBackToV1AgainstAPreV2Server) {
  // A pre-v2 server answers the (to it) unknown-typed hello with a v1
  // kBadFrame response — the fallback signal.
  ScriptedServer server(
      net::encode_response_frame(net::WireResponse{net::WireStatus::kBadFrame, 0, 0}));
  net::AuthClient client = server.client();
  EXPECT_EQ(client.negotiate(), net::kWireVersion);
  EXPECT_EQ(client.version(), net::kWireVersion);
}

TEST(NetV2, NegotiateRejectsProtocolViolatingServers) {
  {  // A v1 response with any status but kBadFrame is a violation.
    ScriptedServer server(
        net::encode_response_frame(net::WireResponse{net::WireStatus::kAccept, 0, 16}));
    net::AuthClient client = server.client();
    EXPECT_THROW(client.negotiate(), Error);
  }
  {  // So is any non-hello, non-response frame.
    ScriptedServer server(net::encode_challenge_frame(1, auth::Nonce{}));
    net::AuthClient client = server.client();
    EXPECT_THROW(client.negotiate(), Error);
  }
  {  // And a server hello pinning a version this client does not speak.
    ScriptedServer server(net::encode_server_hello(net::kWireMaxVersion + 1));
    net::AuthClient client = server.client();
    EXPECT_THROW(client.negotiate(), Error);
  }
}

// ------------------------------------------------------- degradation answers

TEST(NetV2, V2TrafficOnAnUnpinnedConnectionAnswersBadFrame) {
  ServerHarness harness;
  net::AuthClient client = harness.client();
  const std::uint64_t did = harness.registry().device_id_at(0);

  // No hello ran: v2 requests and proofs are refused with a v1 answer (the
  // peer never proved it can parse v2 frames).
  client.send_raw(net::encode_request_frame_v2(1, did));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);
  client.send_raw(net::encode_proof_frame(1, auth::Tag{}));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);

  // The connection stays framed: plain v1 requests still verify.
  service::AuthRequest request;
  request.device_id = did;
  request.challenge = 1;
  request.response = BitVec(16);
  const net::WireResponse answer = client.send_request(request);
  EXPECT_FALSE(net::wire_status_is_transport(answer.status));
}

TEST(NetV2, MalformedV2PayloadsAnswerRequestIdZeroBadFrame) {
  ServerHarness harness;
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  // A v2 request whose payload decode fails has no recoverable request id;
  // the answer carries rid 0 — the reserved unattributable id.
  client.send_raw(raw_frame(net::FrameType::kAuthRequest, net::kWireVersionV2,
                            std::string(7, 'q')));
  net::AuthClient::RawFrame frame = client.recv_frame();
  ASSERT_EQ(frame.type, net::FrameType::kAuthResponse);
  ASSERT_EQ(frame.version, net::kWireVersionV2);
  net::V2Response answer = net::decode_response_payload_v2(frame.payload);
  EXPECT_EQ(answer.request_id, 0u);
  EXPECT_EQ(answer.response.status, net::WireStatus::kBadFrame);

  // Same contract for a truncated proof payload.
  client.send_raw(raw_frame(net::FrameType::kAuthProof, net::kWireVersionV2,
                            std::string(8 + 31, 'p')));
  frame = client.recv_frame();
  ASSERT_EQ(frame.type, net::FrameType::kAuthResponse);
  answer = net::decode_response_payload_v2(frame.payload);
  EXPECT_EQ(answer.request_id, 0u);
  EXPECT_EQ(answer.response.status, net::WireStatus::kBadFrame);
}

TEST(NetV2, ClientOnlyFrameTypesArrivingAtTheServerAnswerBadFrame) {
  ServerHarness harness;
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  // Well-formed frames of the server->client types are nonsensical here;
  // each answers kBadFrame and keeps the connection.
  client.send_raw(net::encode_server_hello(net::kWireVersionV2));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);
  client.send_raw(net::encode_challenge_frame(1, auth::Nonce{}));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);
  client.send_raw(net::encode_response_frame_v2(
      1, net::WireResponse{net::WireStatus::kAccept, 0, 16}));
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);
}

TEST(NetV2, SessionCapAnswersOverloadedWithTheRequestId) {
  net::ServerOptions options;
  options.max_sessions = 2;
  ServerHarness harness(options);
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  const std::uint64_t did = harness.registry().device_id_at(0);
  std::string blob;
  for (const std::uint64_t rid : {11u, 12u, 13u}) {
    blob += net::encode_request_frame_v2(rid, did);
  }
  client.send_raw(blob);

  // Two challenges fit the session map; the third request is refused with
  // a v2 answer that still names its rid, so the client can retire it.
  std::vector<std::uint64_t> challenged;
  for (int i = 0; i < 3; ++i) {
    const net::AuthClient::RawFrame frame = client.recv_frame();
    if (frame.type == net::FrameType::kAuthChallenge) {
      challenged.push_back(net::decode_challenge_payload(frame.payload).request_id);
      continue;
    }
    ASSERT_EQ(frame.type, net::FrameType::kAuthResponse);
    const net::V2Response answer = net::decode_response_payload_v2(frame.payload);
    EXPECT_EQ(answer.request_id, 13u);
    EXPECT_EQ(answer.response.status, net::WireStatus::kOverloaded);
  }
  EXPECT_EQ(challenged, (std::vector<std::uint64_t>{11, 12}));
}

// --------------------------------------------------- challenge/proof exchange

TEST(NetV2, ChallengeProofRoundTripAcceptsAndReplayRejects) {
  ServerHarness harness;
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  const std::uint64_t did = harness.registry().device_id_at(0);
  const crypto::Sha256Digest key = enrolled_key(harness.registry(), did);

  client.send_raw(net::encode_request_frame_v2(41, did));
  const net::AuthClient::RawFrame frame = client.recv_frame();
  ASSERT_EQ(frame.type, net::FrameType::kAuthChallenge);
  const net::ChallengePayload challenge = net::decode_challenge_payload(frame.payload);
  ASSERT_EQ(challenge.request_id, 41u);

  const auth::Tag tag = auth::prove(key, challenge.nonce, 41, did);
  const std::string proof_bytes = net::encode_proof_frame(41, tag);
  client.send_raw(proof_bytes);
  const net::AuthClient::RawFrame verdict_frame = client.recv_frame();
  ASSERT_EQ(verdict_frame.type, net::FrameType::kAuthResponse);
  const net::V2Response verdict = net::decode_response_payload_v2(verdict_frame.payload);
  EXPECT_EQ(verdict.request_id, 41u);
  EXPECT_EQ(verdict.response.status, net::WireStatus::kAccept);
  EXPECT_EQ(verdict.response.distance, 0u);

  // The proof consumed its session: replaying the exact same bytes finds
  // no outstanding challenge and rejects — a recorded transcript is dead.
  client.send_raw(proof_bytes);
  const net::V2Response replay =
      net::decode_response_payload_v2(client.recv_frame().payload);
  EXPECT_EQ(replay.request_id, 41u);
  EXPECT_EQ(replay.response.status, net::WireStatus::kReject);

  // A proof for a rid that never had a challenge is the same dead end.
  client.send_raw(net::encode_proof_frame(999, tag));
  const net::V2Response fabricated =
      net::decode_response_payload_v2(client.recv_frame().payload);
  EXPECT_EQ(fabricated.request_id, 999u);
  EXPECT_EQ(fabricated.response.status, net::WireStatus::kReject);
}

TEST(NetV2, RepeatedRequestIdRefreshesTheChallenge) {
  ServerHarness harness;
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  const std::uint64_t did = harness.registry().device_id_at(1);
  const crypto::Sha256Digest key = enrolled_key(harness.registry(), did);

  // Two requests under one rid: the second challenge replaces the first.
  client.send_raw(net::encode_request_frame_v2(5, did));
  const auth::Nonce stale =
      net::decode_challenge_payload(client.recv_frame().payload).nonce;
  client.send_raw(net::encode_request_frame_v2(5, did));
  const auth::Nonce fresh =
      net::decode_challenge_payload(client.recv_frame().payload).nonce;
  EXPECT_NE(stale, fresh);  // the factory's counter makes reissues fresh

  // A proof over the replaced nonce fails even with the right key: only
  // the newest challenge is answerable.
  client.send_raw(net::encode_proof_frame(5, auth::prove(key, stale, 5, did)));
  const net::V2Response rejected =
      net::decode_response_payload_v2(client.recv_frame().payload);
  EXPECT_EQ(rejected.response.status, net::WireStatus::kReject);

  // And the session is spent; a fresh exchange works from scratch.
  client.send_raw(net::encode_request_frame_v2(5, did));
  const auth::Nonce retry =
      net::decode_challenge_payload(client.recv_frame().payload).nonce;
  client.send_raw(net::encode_proof_frame(5, auth::prove(key, retry, 5, did)));
  const net::V2Response accepted =
      net::decode_response_payload_v2(client.recv_frame().payload);
  EXPECT_EQ(accepted.response.status, net::WireStatus::kAccept);
}

TEST(NetV2, ProofsCompleteInProofArrivalOrderNotRequestOrder) {
  ServerHarness harness;
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  const std::uint64_t did = harness.registry().device_id_at(2);
  const crypto::Sha256Digest key = enrolled_key(harness.registry(), did);

  client.send_raw(net::encode_request_frame_v2(1, did) +
                  net::encode_request_frame_v2(2, did));
  std::map<std::uint64_t, auth::Nonce> nonces;
  for (int i = 0; i < 2; ++i) {
    const net::AuthClient::RawFrame frame = client.recv_frame();
    ASSERT_EQ(frame.type, net::FrameType::kAuthChallenge);
    const net::ChallengePayload challenge = net::decode_challenge_payload(frame.payload);
    nonces[challenge.request_id] = challenge.nonce;
  }
  ASSERT_EQ(nonces.size(), 2u);

  // Answer the SECOND request first; its verdict must come back first —
  // the request id, not the arrival position, attributes the answer.
  for (const std::uint64_t rid : {2u, 1u}) {
    client.send_raw(net::encode_proof_frame(rid, auth::prove(key, nonces[rid], rid, did)));
    const net::V2Response verdict =
        net::decode_response_payload_v2(client.recv_frame().payload);
    EXPECT_EQ(verdict.request_id, rid);
    EXPECT_EQ(verdict.response.status, net::WireStatus::kAccept);
  }
}

TEST(NetV2, ProofsPastMaxPendingAnswerOverloadedWithTheirRequestId) {
  // max_pending bounds proofs like v1 requests: with room for two, the
  // third proof of one read is refused with its request id, behind the two
  // verdicts ahead of it, and its session is spent like any proof's.
  net::ServerOptions options;
  options.max_pending = 2;
  ServerHarness harness(options);
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);

  const std::uint64_t did = harness.registry().device_id_at(3);
  const crypto::Sha256Digest key = enrolled_key(harness.registry(), did);
  client.send_raw(net::encode_request_frame_v2(1, did) +
                  net::encode_request_frame_v2(2, did) +
                  net::encode_request_frame_v2(3, did));
  std::vector<std::string> proofs;
  for (const std::uint64_t rid : {1u, 2u, 3u}) {
    const net::ChallengePayload challenge =
        net::decode_challenge_payload(client.recv_frame().payload);
    ASSERT_EQ(challenge.request_id, rid);
    proofs.push_back(
        net::encode_proof_frame(rid, auth::prove(key, challenge.nonce, rid, did)));
  }
  client.send_raw(proofs[0] + proofs[1] + proofs[2]);

  for (const std::uint64_t rid : {1u, 2u}) {
    const net::V2Response verdict =
        net::decode_response_payload_v2(client.recv_frame().payload);
    EXPECT_EQ(verdict.request_id, rid);
    EXPECT_EQ(verdict.response.status, net::WireStatus::kAccept);
  }
  const net::V2Response refused =
      net::decode_response_payload_v2(client.recv_frame().payload);
  EXPECT_EQ(refused.request_id, 3u);
  EXPECT_EQ(refused.response.status, net::WireStatus::kOverloaded);

  client.send_raw(proofs[2]);
  const net::V2Response replay =
      net::decode_response_payload_v2(client.recv_frame().payload);
  EXPECT_EQ(replay.request_id, 3u);
  EXPECT_EQ(replay.response.status, net::WireStatus::kReject);
}

TEST(NetV2, ProofsVerifyThroughTheServiceBatchPath) {
  // Proofs queue and drain like v1 requests: every one lands in a batch
  // (service.batch_items) and counts once in the shared service.requests.
  obs::set_metrics_enabled(true);
  obs::Registry& metrics = obs::Registry::instance();
  obs::Counter& batch_items = metrics.counter("service.batch_items");
  obs::Counter& requests = metrics.counter("service.requests");
  const std::uint64_t items_before = batch_items.value();
  const std::uint64_t requests_before = requests.value();

  ServerHarness harness;
  service::WorkloadSpec spec;
  spec.requests = 32;
  const std::vector<service::ProofIntent> intents =
      service::synthesize_proof_workload(harness.registry(), spec);
  net::AuthClient client = harness.client();
  ASSERT_EQ(client.negotiate(), net::kWireVersionV2);
  ASSERT_EQ(client.send_proof_batch(intents).size(), intents.size());

  EXPECT_EQ(batch_items.value() - items_before, intents.size());
  EXPECT_EQ(requests.value() - requests_before, intents.size());
  obs::set_metrics_enabled(false);
}

// ---------------------------------------------------------- proof batch API

TEST(NetV2, SendProofBatchPreconditionsThrow) {
  ServerHarness harness;
  service::ProofIntent intent;
  intent.request_id = 1;
  intent.device_id = harness.registry().device_id_at(0);

  {  // v2 must be negotiated first.
    net::AuthClient client = harness.client();
    EXPECT_THROW(client.send_proof_batch({intent}), Error);
  }
  {  // Duplicate request ids would make two answers indistinguishable.
    net::AuthClient client = harness.client();
    ASSERT_EQ(client.negotiate(), net::kWireVersionV2);
    EXPECT_THROW(client.send_proof_batch({intent, intent}), Error);
  }
}

TEST(NetV2, ProofBatchMatchesOfflineAtEveryShardCountAndThreadBudget) {
  const service::AuthServiceOptions auth_options;
  service::WorkloadSpec spec;
  spec.requests = 96;
  spec.flip_rate = 0.02;
  spec.forge_rate = 0.10;   // keyless provers: all-zero tags, must reject
  spec.unknown_rate = 0.10; // unenrolled ids: must answer kUnknownDevice
  spec.seed = 0x77a2e;

  std::vector<std::uint64_t> digests;
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      set_thread_budget_override(threads);
      net::ServerOptions options;
      options.shards = shards;
      ServerHarness harness(options, auth_options);
      const std::vector<service::ProofIntent> intents =
          service::synthesize_proof_workload(harness.registry(), spec);

      net::AuthClient client = harness.client();
      ASSERT_EQ(client.negotiate(), net::kWireVersionV2);
      const std::vector<net::WireResponse> responses = client.send_proof_batch(intents);
      ASSERT_EQ(responses.size(), intents.size());

      // The offline reference: the same intents through verify_proof_batch
      // with locally minted nonces. Proof verdicts are a pure function of
      // (record, nonce, ids, tag) with the tag bound to the nonce, so the
      // nonce values themselves drop out and online must match exactly.
      auth::NonceFactory nonces(0x0ff11e);
      std::vector<service::ProofRequest> reference;
      reference.reserve(intents.size());
      for (const service::ProofIntent& intent : intents) {
        service::ProofRequest request;
        request.request_id = intent.request_id;
        request.device_id = intent.device_id;
        request.nonce = nonces.next(intent.device_id, intent.request_id);
        if (intent.has_key) {
          request.tag = auth::prove(intent.key, request.nonce,
                                    intent.request_id, intent.device_id);
        }
        reference.push_back(request);
      }
      const service::AuthService offline(&harness.registry(), auth_options);
      const std::vector<service::AuthVerdict> expected =
          offline.verify_proof_batch(reference);

      std::vector<service::AuthVerdict> online;
      online.reserve(responses.size());
      for (std::size_t i = 0; i < responses.size(); ++i) {
        online.push_back(net::auth_verdict(responses[i]));
        EXPECT_EQ(online[i].status, expected[i].status)
            << "shards=" << shards << " threads=" << threads << " intent " << i;
        EXPECT_EQ(online[i].distance, expected[i].distance) << "intent " << i;
        EXPECT_EQ(online[i].response_bits, expected[i].response_bits) << "intent " << i;
      }
      digests.push_back(service::verdict_digest(online));
      EXPECT_EQ(digests.back(), service::verdict_digest(expected))
          << "shards=" << shards << " threads=" << threads;
    }
  }
  set_thread_budget_override(0);

  // One digest across the whole sweep: the verdict stream is bit-identical
  // at any shard count and any thread budget.
  for (const std::uint64_t digest : digests) EXPECT_EQ(digest, digests.front());

  // The mix exercised all three outcomes (the parity would be vacuous if
  // the workload collapsed into one status).
  net::ServerOptions options;
  ServerHarness harness(options, auth_options);
  const std::vector<service::ProofIntent> intents =
      service::synthesize_proof_workload(harness.registry(), spec);
  std::size_t with_key = 0, unknown = 0;
  for (const service::ProofIntent& intent : intents) {
    with_key += intent.has_key ? 1 : 0;
    unknown += harness.registry().contains(intent.device_id) ? 0 : 1;
  }
  EXPECT_GT(with_key, 0u);
  EXPECT_LT(with_key, intents.size());
  EXPECT_GT(unknown, 0u);
}

}  // namespace

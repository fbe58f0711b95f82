// End-to-end server tests over real loopback sockets: verdict parity with
// the offline batch engine at several thread budgets, backpressure,
// deadline and connection-limit enforcement, and frame tampering over the
// wire (the server must answer an error frame or close cleanly — never
// crash; the ASan/UBSan CI job runs this suite too).
#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "net/client.h"
#include "puf/crp.h"
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

std::vector<service::AuthRequest> small_workload(const registry::Registry& reg,
                                                 const service::AuthServiceOptions& opts,
                                                 std::size_t requests) {
  service::WorkloadSpec workload;
  workload.requests = requests;
  workload.flip_rate = 0.02;
  workload.forge_rate = 0.05;
  workload.unknown_rate = 0.05;
  workload.seed = 0x3a7e11;
  return service::synthesize_workload(reg, opts, workload);
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
  net::AuthServer& server() { return server_; }

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

TEST(AuthServer, RoundTripMatchesOfflineBatchAtEveryThreadBudget) {
  const service::AuthServiceOptions auth_options;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_thread_budget_override(threads);
    ServerHarness harness({}, auth_options);
    const auto requests = small_workload(harness.registry(), auth_options, 96);

    net::AuthClient client = harness.client();
    const std::vector<net::WireResponse> responses = client.send_batch(requests);

    const service::AuthService offline(&harness.registry(), auth_options);
    const std::vector<service::AuthVerdict> expected = offline.verify_batch(requests);

    ASSERT_EQ(responses.size(), expected.size()) << "threads=" << threads;
    std::vector<service::AuthVerdict> online;
    online.reserve(responses.size());
    for (std::size_t i = 0; i < responses.size(); ++i) {
      online.push_back(net::auth_verdict(responses[i]));
      EXPECT_EQ(online[i].status, expected[i].status) << "request " << i;
      EXPECT_EQ(online[i].distance, expected[i].distance) << "request " << i;
      EXPECT_EQ(online[i].response_bits, expected[i].response_bits) << "request " << i;
    }
    EXPECT_EQ(service::verdict_digest(online), service::verdict_digest(expected))
        << "threads=" << threads;
  }
  set_thread_budget_override(0);
}

TEST(AuthServer, OverloadedQueueRejectsWithStatusAndAnswersEverything) {
  net::ServerOptions options;
  options.max_pending = 1;
  options.max_batch = 1;
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 64);

  // Pipeline every frame in one blob so one read sweep sees them all; with
  // max_pending=1 most must come back kOverloaded, but *every* request gets
  // exactly one answer and the connection survives.
  std::string blob;
  for (const service::AuthRequest& request : requests) {
    blob += net::encode_request_frame(request);
  }
  net::AuthClient client = harness.client();
  client.send_raw(blob);

  std::size_t overloaded = 0;
  std::size_t verified = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const net::WireResponse response = client.recv_response();
    if (response.status == net::WireStatus::kOverloaded) {
      ++overloaded;
    } else {
      ASSERT_LE(response.status, net::WireStatus::kMalformedRequest);
      ++verified;
    }
  }
  EXPECT_GE(overloaded, 1u);
  EXPECT_GE(verified, 1u);
  EXPECT_EQ(overloaded + verified, requests.size());
}

TEST(AuthServer, OverloadAnswersDoNotJumpAheadOfEarlierVerdicts) {
  // The wire has no request ids: response N answers request N, so a
  // kOverloaded rejection for request i must leave the server *after* the
  // verdicts of every request that arrived before i. Pin that by indexing
  // the non-overloaded responses against the offline verdicts at the same
  // position — under the old append-immediately behavior the rejections
  // jumped the queue and the indices drifted.
  net::ServerOptions options;
  options.max_pending = 1;
  options.max_batch = 1;
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 64);

  std::string blob;
  for (const service::AuthRequest& request : requests) {
    blob += net::encode_request_frame(request);
  }
  net::AuthClient client = harness.client();
  client.send_raw(blob);

  const service::AuthService offline(&harness.registry(), {});
  const std::vector<service::AuthVerdict> expected = offline.verify_batch(requests);
  std::size_t overloaded = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const net::WireResponse response = client.recv_response();
    if (response.status == net::WireStatus::kOverloaded) {
      ++overloaded;
      continue;
    }
    ASSERT_LE(response.status, net::WireStatus::kMalformedRequest) << "request " << i;
    const service::AuthVerdict verdict = net::auth_verdict(response);
    EXPECT_EQ(verdict.status, expected[i].status) << "request " << i;
    EXPECT_EQ(verdict.distance, expected[i].distance) << "request " << i;
    EXPECT_EQ(verdict.response_bits, expected[i].response_bits) << "request " << i;
  }
  EXPECT_GE(overloaded, 1u);
}

std::string tampered(std::string frame, std::size_t offset, char xor_mask) {
  frame[offset] ^= xor_mask;
  return frame;
}

TEST(AuthServer, BadFrameAnswersDoNotJumpAheadOfEarlierVerdicts) {
  // A valid request followed by a corrupt frame in the same read sweep must
  // be answered [verdict, kBadFrame] — arrival order — not the other way
  // around.
  ServerHarness harness;
  const auto requests = small_workload(harness.registry(), {}, 1);
  const std::string good = net::encode_request_frame(requests[0]);
  const std::string bad_crc = tampered(good, net::kFrameHeaderBytes, 0x01);

  net::AuthClient client = harness.client();
  client.send_raw(good + bad_crc);
  const net::WireResponse verdict = client.recv_response();
  EXPECT_LE(verdict.status, net::WireStatus::kMalformedRequest);
  const net::WireResponse error = client.recv_response();
  EXPECT_EQ(error.status, net::WireStatus::kBadFrame);
}

TEST(AuthServer, PerSweepReadCapStillAnswersEverything) {
  // A read cap far below one frame size slices the stream across many poll
  // sweeps; liveness and ordering must survive (poll is level-triggered, so
  // capped-off bytes re-arm the next sweep).
  net::ServerOptions options;
  options.max_read_per_sweep = 16;
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 8);

  std::string blob;
  for (const service::AuthRequest& request : requests) {
    blob += net::encode_request_frame(request);
  }
  net::AuthClient client = harness.client();
  client.send_raw(blob);

  const service::AuthService offline(&harness.registry(), {});
  const std::vector<service::AuthVerdict> expected = offline.verify_batch(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const service::AuthVerdict verdict = net::auth_verdict(client.recv_response());
    EXPECT_EQ(verdict.status, expected[i].status) << "request " << i;
    EXPECT_EQ(verdict.distance, expected[i].distance) << "request " << i;
  }
}

TEST(AuthServer, FrameSplitAcrossWritesKeepsItsTailBehindPipelinedFrames) {
  // The reader walks its buffer by offset and compacts once per read: a
  // frame cut once inside its header and once inside its payload, behind
  // whole pipelined frames, must survive every compaction and be answered
  // in order.
  ServerHarness harness;
  const auto requests = small_workload(harness.registry(), {}, 4);
  const service::AuthService offline(&harness.registry(), {});
  const std::vector<service::AuthVerdict> expected = offline.verify_batch(requests);
  const auto expect_answer = [&](std::size_t i, const net::WireResponse& response) {
    const service::AuthVerdict verdict = net::auth_verdict(response);
    EXPECT_EQ(verdict.status, expected[i].status) << "request " << i;
    EXPECT_EQ(verdict.distance, expected[i].distance) << "request " << i;
    EXPECT_EQ(verdict.response_bits, expected[i].response_bits) << "request " << i;
  };

  const std::string split = net::encode_request_frame(requests[2]);
  const std::size_t in_header = net::kFrameHeaderBytes / 2;
  const std::size_t in_payload = net::kFrameHeaderBytes + 4;
  ASSERT_LT(in_payload, split.size());

  net::AuthClient client = harness.client();
  client.send_raw(net::encode_request_frame(requests[0]) +
                  net::encode_request_frame(requests[1]) + split.substr(0, in_header));
  // Both whole frames are answered while the header fragment waits.
  expect_answer(0, client.recv_response());
  expect_answer(1, client.recv_response());
  client.send_raw(split.substr(in_header, in_payload - in_header));
  // Give the loop sweeps that see the payload fragment on its own.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  client.send_raw(split.substr(in_payload) + net::encode_request_frame(requests[3]));
  expect_answer(2, client.recv_response());
  expect_answer(3, client.recv_response());
}

TEST(AuthServer, ReadDeadlineClosesSilentConnections) {
  net::ServerOptions options;
  options.read_deadline_ms = 100;
  ServerHarness harness(options);
  net::AuthClient client = harness.client();
  // Say nothing; the server must reap the connection, not wait forever.
  EXPECT_EQ(client.recv_until_close(), 0u);
}

TEST(AuthServer, HalfFrameThenSilenceClosesWithoutAnAnswer) {
  net::ServerOptions options;
  options.read_deadline_ms = 100;
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 1);
  const std::string frame = net::encode_request_frame(requests[0]);

  net::AuthClient client = harness.client();
  client.send_raw(std::string_view(frame).substr(0, frame.size() - 3));
  EXPECT_EQ(client.recv_until_close(), 0u);
}

TEST(AuthServer, ConnectionLimitClosesTheExcessPeer) {
  net::ServerOptions options;
  options.max_connections = 1;
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 1);

  net::AuthClient first = harness.client();
  first.send_request(requests[0]);  // ensure the slot is occupied

  net::AuthClient second = harness.client();
  EXPECT_EQ(second.recv_until_close(), 0u);
  // The surviving connection keeps working.
  const net::WireResponse again = first.send_request(requests[0]);
  EXPECT_LE(again.status, net::WireStatus::kMalformedRequest);
}

// ------------------------------------------- tampered frames over the wire

TEST(AuthServer, RecoverableTamperAnswersErrorAndKeepsTheConnection) {
  ServerHarness harness;
  const auto requests = small_workload(harness.registry(), {}, 1);
  const std::string good = net::encode_request_frame(requests[0]);

  const std::string recoverable[] = {
      tampered(good, 6, 0x33),                         // frame type
      tampered(good, net::kFrameHeaderBytes, 0x01),    // payload byte: bad CRC
  };
  for (const std::string& bad : recoverable) {
    net::AuthClient client = harness.client();
    client.send_raw(bad + good);
    const net::WireResponse error = client.recv_response();
    EXPECT_EQ(error.status, net::WireStatus::kBadFrame);
    const net::WireResponse verdict = client.recv_response();
    EXPECT_LE(verdict.status, net::WireStatus::kMalformedRequest);
  }
}

TEST(AuthServer, FatalTamperAnswersErrorThenClosesCleanly) {
  ServerHarness harness;
  const auto requests = small_workload(harness.registry(), {}, 1);
  const std::string good = net::encode_request_frame(requests[0]);

  std::string oversized = good;
  const std::uint32_t huge = static_cast<std::uint32_t>(net::kMaxPayloadBytes) + 1;
  for (std::size_t i = 0; i < 4; ++i) {
    oversized[8 + i] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  const std::string fatal[] = {
      tampered(good, 0, 0x01),  // magic
      tampered(good, 4, 0x7f),  // version
      oversized,                // announced length past the bound
  };
  for (const std::string& bad : fatal) {
    net::AuthClient client = harness.client();
    // A valid frame after the poison must NOT be answered: framing is lost.
    client.send_raw(bad + good);
    const net::WireResponse error = client.recv_response();
    EXPECT_EQ(error.status, net::WireStatus::kBadFrame);
    EXPECT_EQ(client.recv_until_close(), 0u);
  }
}

TEST(AuthServer, BadPayloadInsideAValidFrameAnswersErrorAndContinues) {
  ServerHarness harness;
  const auto requests = small_workload(harness.registry(), {}, 1);
  const std::string good = net::encode_request_frame(requests[0]);

  // A response frame sent *to* the server: well-framed, wrong direction.
  net::WireResponse response;
  response.status = net::WireStatus::kAccept;
  const std::string wrong_direction = net::encode_response_frame(response);

  net::AuthClient client = harness.client();
  client.send_raw(wrong_direction + good);
  EXPECT_EQ(client.recv_response().status, net::WireStatus::kBadFrame);
  EXPECT_LE(client.recv_response().status, net::WireStatus::kMalformedRequest);
}

TEST(AuthServer, StopWithNoTrafficReturnsPromptly) {
  ServerHarness harness;
  EXPECT_EQ(harness.server().requests_served(), 0u);
  // Destructor stops and joins; reaching it is the assertion.
}

TEST(AuthServer, TinyWriteBufferClosesSlowConsumers) {
  net::ServerOptions options;
  options.max_write_buffer = 1;  // any response overflows the budget
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 1);

  net::AuthClient client = harness.client();
  client.send_raw(net::encode_request_frame(requests[0]));
  // The response cannot be buffered within the limit, so the connection is
  // dropped instead of growing the write buffer without bound.
  EXPECT_EQ(client.recv_until_close(), 0u);
}

// ------------------------------------------------- configuration validation

TEST(AuthServer, RejectsDegenerateOptionsEagerly) {
  // A zero/negative bound would produce a wedged or spinning loop at
  // runtime; construction must fail instead.
  const registry::Registry registry = small_registry(2);
  const service::AuthService service(&registry, {});

  const auto rejects = [&](auto mutate) {
    net::ServerOptions options;
    mutate(options);
    EXPECT_THROW(net::AuthServer(&service, options), Error);
  };
  rejects([](net::ServerOptions& o) { o.backlog = 0; });
  rejects([](net::ServerOptions& o) { o.backlog = -1; });
  rejects([](net::ServerOptions& o) { o.max_connections = 0; });
  rejects([](net::ServerOptions& o) { o.max_pending = 0; });
  rejects([](net::ServerOptions& o) { o.max_batch = 0; });
  rejects([](net::ServerOptions& o) { o.max_write_buffer = 0; });
  rejects([](net::ServerOptions& o) { o.max_read_per_sweep = 0; });
  rejects([](net::ServerOptions& o) { o.read_deadline_ms = 0; });
  rejects([](net::ServerOptions& o) { o.read_deadline_ms = -5; });
  rejects([](net::ServerOptions& o) { o.accept_backoff_ms = -1; });
  rejects([](net::ServerOptions& o) { o.poll_interval_ms = 0; });
  rejects([](net::ServerOptions& o) { o.drain_timeout_ms = -1; });
  EXPECT_THROW(net::AuthServer(nullptr, net::ServerOptions{}), Error);
}

// ------------------------------------------- admission verdicts on the wire

/// A genuine request for device index `d` of the harness registry.
service::AuthRequest genuine_request(const registry::Registry& registry,
                                     std::size_t device_index,
                                     std::uint64_t challenge,
                                     std::size_t bits = 16) {
  const std::uint64_t id = registry.device_id_at(device_index);
  const auto enrollment = registry.lookup(id);
  const puf::CrpOracle oracle(&enrollment, bits);
  return {id, challenge, oracle.reference(challenge)};
}

TEST(AuthServer, RateLimitedAnswersKeepArrivalOrder) {
  // One device pipelines 6 requests against a burst of 2 with a refill
  // interval too long to matter. In-order wire contract: the first two
  // responses are the real verdicts, every later one is kRateLimited — at
  // the positions the requests arrived, never reordered.
  service::AuthServiceOptions auth_options;
  auth_options.admission.rate_burst = 2;
  auth_options.admission.rate_interval = 1000;
  ServerHarness harness({}, auth_options);

  std::vector<service::AuthRequest> requests;
  for (std::uint64_t i = 0; i < 6; ++i) {
    requests.push_back(genuine_request(harness.registry(), 0, 0xbead + i));
  }
  std::string blob;
  for (const service::AuthRequest& request : requests) {
    blob += net::encode_request_frame(request);
  }
  net::AuthClient client = harness.client();
  client.send_raw(blob);

  const service::AuthService offline(&harness.registry(), {});
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const net::WireResponse response = client.recv_response();
    if (i < 2) {
      const service::AuthVerdict expected = offline.verify(requests[i]);
      EXPECT_EQ(net::auth_verdict(response).status, expected.status)
          << "request " << i;
      EXPECT_EQ(net::auth_verdict(response).distance, expected.distance)
          << "request " << i;
    } else {
      EXPECT_EQ(response.status, net::WireStatus::kRateLimited) << "request " << i;
    }
  }

  // The connection survives rate limiting, and another device is untouched
  // by the first device's empty bucket.
  const service::AuthRequest other = genuine_request(harness.registry(), 1, 0xf00d);
  const net::WireResponse ok = client.send_request(other);
  EXPECT_EQ(ok.status, net::WireStatus::kAccept);
}

TEST(AuthServer, BudgetExhaustedAnswersDistinguishFreshFromRepeat) {
  service::AuthServiceOptions auth_options;
  auth_options.admission.crp_budget = 1;
  ServerHarness harness({}, auth_options);
  net::AuthClient client = harness.client();

  const service::AuthRequest first = genuine_request(harness.registry(), 0, 0xaa);
  EXPECT_EQ(client.send_request(first).status, net::WireStatus::kAccept);

  // A second *distinct* challenge exceeds the device's CRP budget...
  const service::AuthRequest fresh = genuine_request(harness.registry(), 0, 0xbb);
  EXPECT_EQ(client.send_request(fresh).status, net::WireStatus::kBudgetExhausted);

  // ...but repeating the already-seen challenge is still admitted (the
  // reuse budget is off), and the verdict is the same as the first.
  EXPECT_EQ(client.send_request(first).status, net::WireStatus::kAccept);
}

// --------------------------------------------------- client error handling
//
// The real server never misbehaves, so the client's defensive paths need a
// bare socket peer that does.

class RawPeer {
 public:
  RawPeer() {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof(addr)),
              0);
    EXPECT_EQ(::listen(listen_fd_, 4), 0);
    socklen_t len = sizeof(addr);
    EXPECT_EQ(::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len), 0);
    port_ = ntohs(addr.sin_port);
  }

  ~RawPeer() {
    close_accepted();
    if (listen_fd_ >= 0) ::close(listen_fd_);
  }

  std::uint16_t port() const { return port_; }

  void accept_one() {
    accepted_fd_ = ::accept(listen_fd_, nullptr, nullptr);
    EXPECT_GE(accepted_fd_, 0);
  }

  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(accepted_fd_, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }

  void close_accepted() {
    if (accepted_fd_ >= 0) {
      ::close(accepted_fd_);
      accepted_fd_ = -1;
    }
  }

 private:
  int listen_fd_ = -1;
  int accepted_fd_ = -1;
  std::uint16_t port_ = 0;
};

net::AuthClient peer_client(std::uint16_t port, int io_timeout_ms = 2000) {
  net::ClientOptions options;
  options.port = port;
  options.io_timeout_ms = io_timeout_ms;
  net::AuthClient client(options);
  client.connect();
  return client;
}

TEST(AuthClient, UsageAndConnectErrorsThrow) {
  net::ClientOptions zero_window;
  zero_window.window = 0;
  EXPECT_THROW(net::AuthClient{zero_window}, Error);

  net::ClientOptions bad_host;
  bad_host.host = "not-an-address";
  net::AuthClient unresolvable(bad_host);
  EXPECT_THROW(unresolvable.connect(), Error);

  // A port that was just listening and no longer is: connection refused.
  std::uint16_t dead_port = 0;
  {
    RawPeer peer;
    dead_port = peer.port();
  }
  net::ClientOptions refused;
  refused.port = dead_port;
  net::AuthClient client(refused);
  EXPECT_THROW(client.connect(), Error);
  EXPECT_FALSE(client.connected());

  RawPeer peer;
  net::AuthClient connected = peer_client(peer.port());
  EXPECT_THROW(connected.connect(), Error);  // connect() called twice

  net::AuthClient closed = peer_client(peer.port());
  closed.close();
  EXPECT_THROW(closed.send_raw("x"), Error);
  EXPECT_THROW(closed.recv_response(), Error);
}

TEST(AuthClient, GarbageFromThePeerThrowsWireError) {
  const std::string garbage(64, 'Z');  // bad magic from the first byte
  {
    RawPeer peer;
    net::AuthClient client = peer_client(peer.port());
    peer.accept_one();
    peer.send_bytes(garbage);
    EXPECT_THROW(client.recv_response(), net::WireError);
  }
  {
    RawPeer peer;
    net::AuthClient client = peer_client(peer.port());
    peer.accept_one();
    peer.send_bytes(garbage);
    EXPECT_THROW(client.recv_until_close(), net::WireError);
  }
}

TEST(AuthClient, RecvUntilCloseCountsWellFormedResponses) {
  net::WireResponse response;
  response.status = net::WireStatus::kReject;
  response.distance = 3;
  response.response_bits = 16;
  const std::string frame = net::encode_response_frame(response);

  RawPeer peer;
  net::AuthClient client = peer_client(peer.port());
  peer.accept_one();
  peer.send_bytes(frame + frame + frame);
  peer.close_accepted();
  EXPECT_EQ(client.recv_until_close(), 3u);

  // A close in the middle of a frame is a transport failure, not a count.
  RawPeer half_peer;
  net::AuthClient half_client = peer_client(half_peer.port());
  half_peer.accept_one();
  half_peer.send_bytes(frame.substr(0, frame.size() - 3));
  half_peer.close_accepted();
  EXPECT_THROW(half_client.recv_until_close(), Error);
}

TEST(AuthClient, SilentPeerTimesOutTheRead) {
  RawPeer peer;
  net::AuthClient client = peer_client(peer.port(), /*io_timeout_ms=*/50);
  peer.accept_one();
  // The peer never answers; SO_RCVTIMEO must surface as an error rather
  // than blocking forever.
  EXPECT_THROW(client.recv_response(), Error);
}

TEST(AuthClient, SendToAResetConnectionEventuallyThrows) {
  RawPeer peer;
  net::AuthClient client = peer_client(peer.port());
  peer.accept_one();
  peer.close_accepted();

  // The first sends may land in the kernel buffer before the RST is
  // processed, so push until the failure surfaces.
  const std::string blob(1 << 16, 'x');
  bool threw = false;
  for (int i = 0; i < 200 && !threw; ++i) {
    try {
      client.send_raw(blob);
    } catch (const Error&) {
      threw = true;
    }
    if (!threw) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(threw);
}

TEST(AuthClient, ServerCloseMidPipelinedBatchSurfacesACleanError) {
  // The peer answers the first request of a pipelined batch and then
  // disappears. send_batch must surface an Error promptly — never hang
  // waiting for the missing responses, never fabricate them.
  net::WireResponse response;
  response.status = net::WireStatus::kAccept;
  response.response_bits = 16;
  const std::string one_answer = net::encode_response_frame(response);

  RawPeer peer;
  net::AuthClient client = peer_client(peer.port(), /*io_timeout_ms=*/2000);
  peer.accept_one();
  peer.send_bytes(one_answer);
  peer.close_accepted();

  std::vector<service::AuthRequest> batch(4);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].device_id = 7;
    batch[i].challenge = i;
    batch[i].response = BitVec(16);
  }
  const auto began = std::chrono::steady_clock::now();
  EXPECT_THROW(client.send_batch(batch), Error);
  const auto elapsed = std::chrono::steady_clock::now() - began;
  EXPECT_LT(elapsed, std::chrono::seconds(10)) << "client hung on a dead server";
}

}  // namespace

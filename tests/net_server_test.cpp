// End-to-end server tests over real loopback sockets: verdict parity with
// the offline batch engine at several thread budgets, backpressure,
// deadline and connection-limit enforcement, descriptor exhaustion (the
// test lowers its own process's RLIMIT_NOFILE), and frame tampering over the
// wire (the server must answer an error frame or close cleanly — never
// crash; the ASan/UBSan CI job runs this suite too).
#include "net/server.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "net/client.h"
#include "obs/metrics.h"
#include "puf/crp.h"
#include "registry/registry.h"
#include "service/auth_service.h"
#include "serving_harness.h"

namespace {

using namespace ropuf;
using test::ServerHarness;
using test::small_registry;

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

// ------------------------------------------------------ partial sends

/// A blocking client socket whose receive buffer is set tiny before the
/// handshake, so the server's sends to it go short once the kernel's
/// buffers fill.
int small_window_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const int rcvbuf = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

/// Waits up to 20 s for `counter` to pass `floor`.
bool wait_past(const obs::Counter& counter, std::uint64_t floor) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (counter.value() <= floor) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Sends whole copies of `blob` until `counter` passes `floor`, the peer
/// goes away, or `cap` copies went out; returns the copies sent. A peer
/// that reads nothing is then owed more than the host's socket buffers
/// hold, however large they are tuned (up to the cap).
std::size_t send_until_past(int fd, const std::string& blob, const obs::Counter& counter,
                            std::uint64_t floor, std::size_t cap) {
  std::size_t copies = 0;
  while (copies < cap && counter.value() <= floor) {
    std::string_view rest(blob);
    while (!rest.empty()) {
      const ssize_t n = ::send(fd, rest.data(), rest.size(), MSG_NOSIGNAL);
      if (n <= 0) return copies;
      rest.remove_prefix(static_cast<std::size_t>(n));
    }
    ++copies;
  }
  return copies;
}

/// Most copies of 256 requests a stalled peer sends: 29 MB of answers, past
/// any loopback send buffer (about 3-4 MB on a default Linux host) and
/// within the first test's max_write_buffer.
constexpr std::size_t kMaxStallCopies = 4000;

TEST(AuthServer, StalledReaderGetsEveryAnswerIntactAndInOrder) {
  obs::set_metrics_enabled(true);
  const obs::Counter& partial_flushes =
      obs::Registry::instance().counter("net.partial_flushes");
  const std::uint64_t partial_before = partial_flushes.value();
  net::ServerOptions options;
  options.max_write_buffer = 64u << 20;  // holds everything the peer is owed
  options.max_pending = 1u << 20;        // verifies every pipelined request
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 256);
  std::string blob;
  for (const service::AuthRequest& request : requests) {
    blob += net::encode_request_frame(request);
  }
  const service::AuthService offline(&harness.registry(), {});
  const std::vector<service::AuthVerdict> expected = offline.verify_batch(requests);

  // Send without reading, and keep not reading until the server's send has
  // come back short: the answers owed now wait in its output buffer.
  const int fd = small_window_connect(harness.port());
  const std::size_t copies =
      send_until_past(fd, blob, partial_flushes, partial_before, kMaxStallCopies);
  ASSERT_TRUE(wait_past(partial_flushes, partial_before))
      << "the server never saw a short send after " << copies << " copies";

  const std::size_t frame_bytes =
      net::encode_response_frame(net::WireResponse{}).size();
  const std::size_t total = copies * requests.size();
  std::string in(total * frame_bytes, '\0');
  std::size_t got = 0;
  while (got < in.size()) {
    const ssize_t n = ::recv(fd, in.data() + got, in.size() - got, 0);
    ASSERT_GT(n, 0) << "connection ended after " << got << " bytes";
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  std::string_view rest(in);
  for (std::size_t k = 0; k < total; ++k) {
    const net::ExtractResult extracted = net::try_extract_frame(rest);
    ASSERT_EQ(extracted.status, net::ExtractResult::Status::kFrame) << "answer " << k;
    const service::AuthVerdict verdict =
        net::auth_verdict(net::decode_response_payload(extracted.frame.payload));
    const service::AuthVerdict& want = expected[k % expected.size()];
    ASSERT_EQ(verdict.status, want.status) << "answer " << k;
    ASSERT_EQ(verdict.distance, want.distance) << "answer " << k;
    ASSERT_EQ(verdict.response_bits, want.response_bits) << "answer " << k;
    rest.remove_prefix(extracted.frame.frame_bytes);
  }
  EXPECT_TRUE(rest.empty());
  obs::set_metrics_enabled(false);
}

TEST(AuthServer, StalledReaderPastTheWriteBoundIsClosedAsASlowConsumer) {
  obs::set_metrics_enabled(true);
  const obs::Counter& slow_closes =
      obs::Registry::instance().counter("net.slow_consumer_closes");
  const std::uint64_t closes_before = slow_closes.value();
  net::ServerOptions options;
  options.max_write_buffer = 64u << 10;  // far less than the peer will be owed
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 256);
  std::string blob;
  for (const service::AuthRequest& request : requests) {
    blob += net::encode_request_frame(request);
  }

  // Sending stops once the server closes the connection.
  const int fd = small_window_connect(harness.port());
  const std::size_t copies =
      send_until_past(fd, blob, slow_closes, closes_before, kMaxStallCopies);
  EXPECT_TRUE(wait_past(slow_closes, closes_before));
  // Reading now finds the connection closed before the answers ran out.
  const std::size_t frame_bytes =
      net::encode_response_frame(net::WireResponse{}).size();
  std::size_t got = 0;
  char chunk[65536];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  ::close(fd);
  EXPECT_LT(got, copies * requests.size() * frame_bytes);
  obs::set_metrics_enabled(false);
}

// ------------------------------------------------- descriptor exhaustion

/// Lowers this process's soft RLIMIT_NOFILE to `soft` for its lifetime and
/// restores the saved limits on the way out, whatever the test asserted.
class LoweredDescriptorLimit {
 public:
  explicit LoweredDescriptorLimit(rlim_t soft) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~LoweredDescriptorLimit() { ::setrlimit(RLIMIT_NOFILE, &saved_); }
  LoweredDescriptorLimit(const LoweredDescriptorLimit&) = delete;
  LoweredDescriptorLimit& operator=(const LoweredDescriptorLimit&) = delete;

 private:
  rlimit saved_{};
};

/// Closes the descriptors it holds when the test returns.
struct Descriptors {
  std::vector<int> fds;
  ~Descriptors() {
    for (const int fd : fds) ::close(fd);
  }
  /// Closes the first `n` and forgets them.
  void close_first(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) ::close(fds[i]);
    fds.erase(fds.begin(), fds.begin() + static_cast<std::ptrdiff_t>(n));
  }
};

/// The digest of the verdicts `answers` (v1 response frames) carry.
std::uint64_t answers_digest(std::string_view answers) {
  std::vector<service::AuthVerdict> verdicts;
  while (!answers.empty()) {
    const net::ExtractResult extracted = net::try_extract_frame(answers);
    if (extracted.status != net::ExtractResult::Status::kFrame) break;
    verdicts.push_back(
        net::auth_verdict(net::decode_response_payload(extracted.frame.payload)));
    answers.remove_prefix(extracted.frame.frame_bytes);
  }
  return service::verdict_digest(verdicts);
}

TEST(AuthServer, DescriptorExhaustionBacksOffAcceptAndRecovers) {
  obs::set_metrics_enabled(true);
  const obs::Counter& backoffs = obs::Registry::instance().counter("net.accept_backoffs");
  const std::uint64_t backoffs_before = backoffs.value();
  net::ServerOptions options;
  options.accept_backoff_ms = 10;
  ServerHarness harness(options);
  const auto requests = small_workload(harness.registry(), {}, 16);
  std::string blob;
  for (const service::AuthRequest& request : requests) {
    blob += net::encode_request_frame(request);
  }
  const std::size_t answer_bytes =
      requests.size() * net::encode_response_frame(net::WireResponse{}).size();
  const service::AuthService offline(&harness.registry(), {});
  const std::uint64_t want = service::verdict_digest(offline.verify_batch(requests));

  net::AuthClient early = harness.client();
  const auto early_digest = [&] {
    std::vector<service::AuthVerdict> verdicts;
    for (const net::WireResponse& response : early.send_batch(requests)) {
      verdicts.push_back(net::auth_verdict(response));
    }
    return service::verdict_digest(verdicts);
  };
  ASSERT_EQ(early_digest(), want);

  // Every descriptor the rest of the test uses exists before the limit
  // drops: the sockets of the clients that will wait, and placeholders
  // whose release later makes room for the server.
  constexpr std::size_t kWaiting = 3;
  Descriptors waiting;
  Descriptors placeholders;
  for (std::size_t i = 0; i < kWaiting; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    const timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    waiting.fds.push_back(fd);
  }
  for (std::size_t i = 0; i < kWaiting + 1; ++i) {
    const int fd = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
    ASSERT_GE(fd, 0);
    placeholders.fds.push_back(fd);
  }
  // The lowest free descriptor number: below it every number is taken, so
  // with the soft limit there the server's accept() fails with EMFILE.
  const int lowest_free = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  const LoweredDescriptorLimit limit(static_cast<rlim_t>(lowest_free));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(harness.port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  for (const int fd : waiting.fds) {
    // The handshake completes in the listener's backlog; the request waits
    // in the socket until the server can accept.
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ASSERT_EQ(::send(fd, blob.data(), blob.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(blob.size()));
  }
  ASSERT_TRUE(wait_past(backoffs, backoffs_before)) << "accept() never backed off";
  // The connection accepted before the limit is still served, correctly.
  EXPECT_EQ(early_digest(), want);

  // Free descriptors: the server accepts the waiting clients and answers
  // every request they sent while they waited.
  placeholders.close_first(kWaiting + 1);
  for (const int fd : waiting.fds) {
    std::string answers(answer_bytes, '\0');
    std::size_t got = 0;
    while (got < answers.size()) {
      const ssize_t n = ::recv(fd, answers.data() + got, answers.size() - got, 0);
      ASSERT_GT(n, 0) << "waiting client got " << got << " of " << answer_bytes << " bytes";
      got += static_cast<std::size_t>(n);
    }
    EXPECT_EQ(answers_digest(answers), want);
  }
  obs::set_metrics_enabled(false);
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

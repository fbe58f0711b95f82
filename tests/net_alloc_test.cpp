// Heap allocations on the serving path, and the heap a warm cache holds.
//
// A warm v1 request goes from frame to answer through the payload decode,
// a cache hit in the service, the challenge expansion, the gather from the
// packed enrolled bits and the answer encoded into the connection's output
// buffer; none of those steps may touch the allocator. A warm v2 request
// opens a session in the connection's flat table and has its challenge
// encoded straight into that buffer, and allocates nothing either. This
// binary replaces the global operator new with a counting one
// (counting_alloc.h), asserts zero allocations over many calls of each
// step, and then drives a live AuthServer to bound the allocations per
// batch of 256 v1 requests, of 256 v2 requests and of 256 v2 proofs once
// the server is warm. It also bounds the live heap each warm cache entry
// holds over a servebench-sized fleet.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "auth/auth.h"
#include "common/bitvec.h"
#include "common/error.h"
#include "counting_alloc.h"
#include "net/server.h"
#include "net/wire.h"
#include "puf/crp.h"
#include "registry/registry.h"
#include "service/auth_service.h"
#include "serving_harness.h"

namespace ropuf {
namespace {

using counting_alloc::allocations_over;
using test::small_registry;

constexpr std::size_t kCalls = 10000;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kBatches = 40;
/// Allocations a served batch may make: the service's verdict vectors, two
/// per verify call, with room for a batch that arrives over several sweeps.
/// One allocation per request would already be 256.
constexpr std::size_t kPerBatchBound = 16;

/// Where the loops leave their results, so no call can be dropped.
volatile std::size_t g_sink = 0;

/// A genuine 16-bit request for device `index` of the registry.
service::AuthRequest genuine_request(const registry::Registry& registry, std::size_t index,
                                     std::uint64_t challenge) {
  const std::uint64_t id = registry.device_id_at(index % registry.device_count());
  const puf::ConfigurableEnrollment enrollment = registry.lookup(id);
  return {id, challenge, puf::CrpOracle(&enrollment, 16).reference(challenge)};
}

TEST(V1Allocations, CounterSeesABitVecPastItsInlineWord) {
  // Without this the zero counts below could come from a counter that
  // never runs.
  EXPECT_EQ(allocations_over(1, [](std::size_t) { g_sink = BitVec(65).size(); }), 1u);
  EXPECT_EQ(allocations_over(1, [](std::size_t) { g_sink = BitVec(64).size(); }), 0u);
}

TEST(V1Allocations, DecodingASixteenBitRequestAllocatesNothing) {
  const registry::Registry registry = small_registry();
  const service::AuthRequest request = genuine_request(registry, 3, 0xc0ffee);
  const std::string frame = net::encode_request_frame(request);
  const std::string_view payload = std::string_view(frame).substr(net::kFrameHeaderBytes);
  const auto decode = [&](std::size_t) {
    g_sink = net::decode_request_payload(payload).response.popcount();
  };
  EXPECT_EQ(allocations_over(kCalls, decode), 0u);
  EXPECT_EQ(net::decode_request_payload(payload).response, request.response);
}

TEST(V1Allocations, WarmVerifyAllocatesNothing) {
  const registry::Registry registry = small_registry();
  const service::AuthService service(&registry, {});
  std::vector<service::AuthRequest> requests;
  for (std::size_t i = 0; i < 8; ++i) {
    requests.push_back(genuine_request(registry, i, 0xace + i));
  }
  for (const service::AuthRequest& request : requests) {
    // Warms the cache.
    ASSERT_EQ(service.verify(request).status, service::AuthStatus::kAccept);
  }
  std::size_t accepted = 0;
  const auto verify = [&](std::size_t i) {
    accepted += service.verify(requests[i % requests.size()]).accepted();
  };
  EXPECT_EQ(allocations_over(kCalls, verify), 0u);
  EXPECT_EQ(accepted, kCalls);
}

TEST(V1Allocations, AppendingAnswersIntoAReservedBufferAllocatesNothing) {
  const net::WireResponse response{net::WireStatus::kReject, 3, 16};
  const auth::Nonce nonce{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  const std::string v1 = net::encode_response_frame(response);
  const std::string v2 = net::encode_response_frame_v2(77, response);
  const std::string challenge = net::encode_challenge_frame(77, nonce);
  const std::size_t round_bytes = v1.size() + v2.size() + challenge.size();
  std::string out;
  out.reserve(kCalls * round_bytes);
  EXPECT_EQ(allocations_over(kCalls,
                             [&](std::size_t) {
                               net::append_response_frame(out, response);
                               net::append_response_frame_v2(out, 77, response);
                               net::append_challenge_frame(out, 77, nonce);
                             }),
            0u);
  // The appended frames are the encoded ones, byte for byte.
  ASSERT_EQ(out.size(), kCalls * round_bytes);
  EXPECT_EQ(out.substr(0, round_bytes), v1 + v2 + challenge);
}

TEST(V1Allocations, ChallengeExpansionAllocatesNothingUpToTheStackBound) {
  const auto expand = [&](std::size_t i) {
    const puf::ChallengeExpansion pairs(0x9e3779b97f4a7c15ull * i, 16, 16);
    g_sink = pairs[0] + pairs[15];
  };
  EXPECT_EQ(allocations_over(kCalls, expand), 0u);
  EXPECT_EQ(allocations_over(100,
                             [&](std::size_t i) {
                               const puf::ChallengeExpansion pairs(
                                   i, puf::kStackExpansionPairs, puf::kStackExpansionPairs);
                               g_sink = pairs[0];
                             }),
            0u);
  // One pair more moves the permutation to the heap.
  EXPECT_EQ(allocations_over(1,
                             [&](std::size_t i) {
                               const puf::ChallengeExpansion pairs(
                                   i, puf::kStackExpansionPairs + 1, 16);
                               g_sink = pairs[0];
                             }),
            1u);

  const registry::Registry registry = small_registry();
  const service::AuthRequest request = genuine_request(registry, 5, 0xfeed);
  const puf::ConfigurableEnrollment enrollment = registry.lookup(request.device_id);
  const BitVec enrolled = enrollment.response();
  const puf::CrpOracle oracle(&enrollment, 16);
  EXPECT_EQ(allocations_over(kCalls,
                             [&](std::size_t i) {
                               g_sink = puf::reference_distance(request.challenge + i % 2,
                                                                enrolled, request.response);
                               g_sink = oracle.reference(i).popcount();
                             }),
            0u);
  EXPECT_EQ(puf::reference_distance(request.challenge, enrolled, request.response), 0u);
}

// --------------------------------------------------------- cache entries

/// The servebench v1_hot fleet size.
constexpr std::size_t kFleetDevices = 2048;
/// Live heap one warm cache entry may hold: its record (outcome, epoch,
/// packed reference bits, v2 key midstates and covered count) with the
/// shared_ptr control block, and the LRU node and hash-map node and bucket
/// that index it. A decoded enrollment kept in the entry would exceed it.
constexpr std::size_t kEntryHeapBound = 512;

TEST(CacheFootprint, CounterSeesLiveBytesComeAndGo) {
  // Without this the heap bound below could pass on a counter that never
  // runs.
  const std::size_t before = counting_alloc::live_bytes.load();
  std::size_t held = 0;
  {
    const std::vector<char> block(4096);
    g_sink = block.size();
    held = counting_alloc::live_bytes.load() - before;
  }
  EXPECT_GE(held, 4096u);
  EXPECT_EQ(counting_alloc::live_bytes.load(), before);
}

TEST(CacheFootprint, AWarmEntryHoldsAtMost512HeapBytes) {
  const registry::Registry registry = small_registry(kFleetDevices);
  const service::AuthService service(&registry, {});
  ASSERT_GE(service.options().cache_capacity, kFleetDevices);
  // An unknown id first, so the service's static instruments and the
  // unknown-device cache's first node stay out of the measurement.
  const std::uint64_t unknown = ~std::uint64_t{0};
  ASSERT_FALSE(registry.contains(unknown));
  ASSERT_EQ(service.verify({unknown, 1, BitVec(16)}).status,
            service::AuthStatus::kUnknownDevice);

  const std::size_t before = counting_alloc::live_bytes.load();
  for (std::size_t d = 0; d < kFleetDevices; ++d) {
    g_sink = service.verify({registry.device_id_at(d), d, BitVec(16)}).response_bits;
  }
  const std::size_t held = counting_alloc::live_bytes.load() - before;
  ASSERT_EQ(service.cache_size(), kFleetDevices);
  const std::size_t per_entry = held / kFleetDevices;
  EXPECT_LE(per_entry, kEntryHeapBound) << held << " live bytes over " << kFleetDevices
                                        << " warm entries";
  // Every entry holds at least its record.
  EXPECT_GE(per_entry, sizeof(service::CachedLookup));
}

// ------------------------------------------------------------ live server

/// A blocking loopback connection that reads into caller-owned storage, so
/// the client side of a measured round allocates nothing.
class RawPeer {
 public:
  explicit RawPeer(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    ROPUF_REQUIRE(fd_ >= 0, "socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    const auto* address = reinterpret_cast<const sockaddr*>(&addr);
    ROPUF_REQUIRE(::connect(fd_, address, sizeof(addr)) == 0, "connect");
  }
  ~RawPeer() { ::close(fd_); }
  RawPeer(const RawPeer&) = delete;
  RawPeer& operator=(const RawPeer&) = delete;

  void send_all(std::string_view bytes) {
    while (!bytes.empty()) {
      const ssize_t n = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
      ROPUF_REQUIRE(n > 0, std::string("send: ") + std::strerror(errno));
      bytes.remove_prefix(static_cast<std::size_t>(n));
    }
  }

  /// Reads exactly `count` bytes into `into` (which must hold them).
  void recv_exact(std::vector<char>& into, std::size_t count) {
    ROPUF_REQUIRE(into.size() >= count, "receive buffer too small");
    std::size_t got = 0;
    while (got < count) {
      const ssize_t n = ::recv(fd_, into.data() + got, count - got, 0);
      ROPUF_REQUIRE(n > 0, "peer closed or failed mid-answer");
      got += static_cast<std::size_t>(n);
    }
  }

 private:
  int fd_ = -1;
};

/// One verification thread, as servebench serves.
service::AuthServiceOptions one_thread() {
  service::AuthServiceOptions options;
  options.threads = ThreadBudget(1);
  return options;
}

/// The answers in `bytes`, decoded in order (v2 answers drop their ids).
std::vector<net::WireResponse> decode_answers(const std::vector<char>& bytes,
                                              std::size_t count, bool v2) {
  std::vector<net::WireResponse> answers;
  std::string_view rest(bytes.data(), bytes.size());
  while (answers.size() < count) {
    const net::ExtractResult extracted = net::try_extract_frame(rest);
    if (extracted.status != net::ExtractResult::Status::kFrame) break;
    answers.push_back(v2 ? net::decode_response_payload_v2(extracted.frame.payload).response
                         : net::decode_response_payload(extracted.frame.payload));
    rest.remove_prefix(extracted.frame.frame_bytes);
  }
  return answers;
}

TEST(ServedAllocations, V1BatchesAllocateASmallConstantEach) {
  const test::ServerHarness live({}, one_thread());
  std::string blob;
  for (std::size_t i = 0; i < kBatch; ++i) {
    blob += net::encode_request_frame(genuine_request(live.registry(), i, 0x5eed + i));
  }
  const std::size_t answer_bytes =
      kBatch * net::encode_response_frame(net::WireResponse{}).size();
  std::vector<char> answers(answer_bytes);
  RawPeer peer(live.port());
  const auto round = [&](std::size_t) {
    peer.send_all(blob);
    peer.recv_exact(answers, answer_bytes);
  };
  // Warm-up: the cache fills, and the buffers and vectors of the connection
  // and the shard reach the capacity a batch needs.
  for (std::size_t w = 0; w < 8; ++w) round(w);

  const std::size_t allocated = allocations_over(kBatches, round);
  EXPECT_LE(allocated, kBatches * kPerBatchBound)
      << allocated << " allocations over " << kBatches << " batches of " << kBatch;
  const std::vector<net::WireResponse> decoded = decode_answers(answers, kBatch, false);
  ASSERT_EQ(decoded.size(), kBatch);
  for (const net::WireResponse& response : decoded) {
    EXPECT_EQ(response.status, net::WireStatus::kAccept);
  }
}

TEST(ServedAllocations, V2ProofBatchesAllocateASmallConstantEach) {
  const test::ServerHarness live({}, one_thread());
  service::WorkloadSpec spec;
  spec.requests = kBatch;
  spec.flip_rate = 0.0;
  spec.forge_rate = 0.0;
  spec.unknown_rate = 0.0;
  const std::vector<service::ProofIntent> intents =
      service::synthesize_proof_workload(live.registry(), spec);
  std::string requests;
  for (const service::ProofIntent& intent : intents) {
    ASSERT_TRUE(intent.has_key);
    requests += net::encode_request_frame_v2(intent.request_id, intent.device_id);
  }
  const std::size_t challenge_bytes =
      kBatch * net::encode_challenge_frame(0, auth::Nonce{}).size();
  const std::size_t answer_bytes =
      kBatch * net::encode_response_frame_v2(0, net::WireResponse{}).size();
  std::vector<char> challenges(challenge_bytes);
  std::vector<char> answers(answer_bytes);

  RawPeer peer(live.port());
  const std::string hello = net::encode_client_hello(net::kWireVersionV2);
  peer.send_all(hello);
  std::vector<char> pinned(net::encode_server_hello(net::kWireVersionV2).size());
  peer.recv_exact(pinned, pinned.size());

  // One round: the requests and their challenges, then the proofs and their
  // verdicts. Each half is measured on its own; the client's proof encodes
  // between them are not.
  std::size_t measured_requests = 0;
  std::size_t measured = 0;
  const auto round = [&](bool measure) {
    const std::size_t before_requests = counting_alloc::allocations.load();
    peer.send_all(requests);
    peer.recv_exact(challenges, challenge_bytes);
    if (measure) measured_requests += counting_alloc::allocations.load() - before_requests;
    std::string proofs;
    std::string_view rest(challenges.data(), challenge_bytes);
    for (const service::ProofIntent& intent : intents) {
      const net::ExtractResult extracted = net::try_extract_frame(rest);
      ASSERT_EQ(extracted.status, net::ExtractResult::Status::kFrame);
      const net::ChallengePayload challenge =
          net::decode_challenge_payload(extracted.frame.payload);
      ASSERT_EQ(challenge.request_id, intent.request_id);
      proofs += net::encode_proof_frame(
          intent.request_id,
          auth::prove(intent.key, challenge.nonce, intent.request_id, intent.device_id));
      rest.remove_prefix(extracted.frame.frame_bytes);
    }
    const std::size_t before = counting_alloc::allocations.load();
    peer.send_all(proofs);
    peer.recv_exact(answers, answer_bytes);
    if (measure) measured += counting_alloc::allocations.load() - before;
  };
  for (std::size_t w = 0; w < 8; ++w) round(false);
  for (std::size_t b = 0; b < kBatches; ++b) round(true);

  EXPECT_LE(measured_requests, kBatches * kPerBatchBound)
      << measured_requests << " allocations over " << kBatches
      << " request batches of " << kBatch;
  EXPECT_LE(measured, kBatches * kPerBatchBound)
      << measured << " allocations over " << kBatches << " proof batches of " << kBatch;
  const std::vector<net::WireResponse> decoded = decode_answers(answers, kBatch, true);
  ASSERT_EQ(decoded.size(), kBatch);
  for (const net::WireResponse& response : decoded) {
    EXPECT_EQ(response.status, net::WireStatus::kAccept);
  }
}

}  // namespace
}  // namespace ropuf

// Multi-reactor server tests over real loopback sockets: digest parity
// with the offline batch engine across the full {shards} x {threads}
// matrix, deterministic round-robin connection placement with per-shard
// counters, admission decisions that stick to the device (not the reactor
// shard a connection landed on), and graceful drain answering in-flight
// requests on every shard.
#include "net/server.h"

#include <gtest/gtest.h>

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

/// A genuine request for one enrolled device (verifies kAccept when
/// admitted).
service::AuthRequest genuine_request(const registry::Registry& reg,
                                     const service::AuthServiceOptions& opts,
                                     std::size_t device_index,
                                     std::uint64_t challenge) {
  const std::uint64_t id = reg.device_id_at(device_index);
  const auto enrollment = reg.lookup(id);
  const puf::CrpOracle oracle(&enrollment, opts.response_bits);
  return {id, challenge, oracle.reference(challenge)};
}

net::ServerOptions sharded(std::size_t shards) {
  net::ServerOptions options;
  options.shards = shards;
  return options;
}

TEST(ShardedAuthServer, RejectsBadShardConfigurations) {
  const registry::Registry reg = small_registry();
  const service::AuthService svc(&reg, {});

  net::ServerOptions zero;
  zero.shards = 0;
  EXPECT_THROW(net::AuthServer(&svc, zero), Error);

  net::ServerOptions starved;
  starved.shards = 8;
  starved.max_connections = 4;  // some shard would have no connection share
  EXPECT_THROW(net::AuthServer(&svc, starved), Error);
}

TEST(ShardedAuthServer, DigestParityAcrossShardAndThreadMatrix) {
  // The tentpole invariant: online verdicts are bit-identical to offline
  // verify_batch at every {shards} x {threads} combination. The workload
  // splits round-robin over three concurrent connections (so multi-shard
  // servers genuinely verify from several reactors), then reassembles into
  // submission order — verification is per-request pure with admission off,
  // so position i must carry the offline verdict of request i regardless of
  // which shard answered it.
  const service::AuthServiceOptions auth_options;
  const registry::Registry offline_registry = small_registry();
  const service::AuthService offline(&offline_registry, auth_options);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      set_thread_budget_override(threads);
      ServerHarness harness(sharded(shards), auth_options);
      const auto requests = small_workload(harness.registry(), auth_options, 96);
      const std::vector<service::AuthVerdict> expected = offline.verify_batch(requests);

      constexpr std::size_t kConnections = 3;
      std::vector<std::vector<service::AuthRequest>> splits(kConnections);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        splits[i % kConnections].push_back(requests[i]);
      }
      std::vector<std::vector<net::WireResponse>> responses(kConnections);
      std::vector<std::thread> senders;
      for (std::size_t c = 0; c < kConnections; ++c) {
        senders.emplace_back([&, c] {
          net::AuthClient client = harness.client();
          responses[c] = client.send_batch(splits[c]);
        });
      }
      for (std::thread& sender : senders) sender.join();

      std::vector<service::AuthVerdict> online(requests.size());
      for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_LT(i / kConnections, responses[i % kConnections].size());
        online[i] = net::auth_verdict(responses[i % kConnections][i / kConnections]);
      }
      EXPECT_EQ(service::verdict_digest(online), service::verdict_digest(expected))
          << "shards=" << shards << " threads=" << threads;
    }
  }
  set_thread_budget_override(0);
}

TEST(ShardedAuthServer, RoundRobinPlacesConnectionsAcrossShardsInOrder) {
  // Round-robin placement is deterministic: connection k lands on shard
  // k % shards. Pin it through the per-shard accepted counters (deltas:
  // the registry instruments are process-wide and other tests bump them).
  obs::set_metrics_enabled(true);
  obs::Registry& registry = obs::Registry::instance();
  obs::Counter& shard0 = registry.counter("net.shard0.connections_accepted");
  obs::Counter& shard1 = registry.counter("net.shard1.connections_accepted");
  const std::uint64_t before0 = shard0.value();
  const std::uint64_t before1 = shard1.value();

  ServerHarness harness(sharded(2));
  EXPECT_EQ(harness.server().shard_count(), 2u);

  const auto requests = small_workload(harness.registry(), {}, 8);
  // Connect and exchange one round sequentially so every accept is adopted
  // (and counted) before the next connection arrives.
  for (std::size_t c = 0; c < 4; ++c) {
    net::AuthClient client = harness.client();
    const auto responses = client.send_batch({requests[c]});
    ASSERT_EQ(responses.size(), 1u);
  }

  EXPECT_EQ(shard0.value() - before0, 2u);
  EXPECT_EQ(shard1.value() - before1, 2u);
  obs::set_metrics_enabled(false);
}

TEST(ShardedAuthServer, AdmissionSticksToTheDeviceNotTheReactorShard) {
  // One device, two connections — round-robin puts them on different
  // reactor shards. Admission slices by device-id hash, so both
  // connections' requests drain the *same* token bucket: burst 2 with an
  // effectively infinite refill interval admits exactly the first two
  // requests overall, wherever the later ones arrive.
  service::AuthServiceOptions auth_options;
  auth_options.admission.rate_burst = 2;
  auth_options.admission.rate_interval = 1u << 20;
  auth_options.admission_shards = 2;
  ServerHarness harness(sharded(2), auth_options);

  std::vector<service::AuthRequest> first_conn;
  std::vector<service::AuthRequest> second_conn;
  for (std::uint64_t r = 0; r < 3; ++r) {
    first_conn.push_back(genuine_request(harness.registry(), auth_options, 0, 100 + r));
    second_conn.push_back(genuine_request(harness.registry(), auth_options, 0, 200 + r));
  }

  // Closed loop: the first connection's batch completes before the second
  // connection's is sent, so the bucket's tick order is deterministic.
  net::AuthClient a = harness.client();
  const auto responses_a = a.send_batch(first_conn);
  net::AuthClient b = harness.client();
  const auto responses_b = b.send_batch(second_conn);

  ASSERT_EQ(responses_a.size(), 3u);
  ASSERT_EQ(responses_b.size(), 3u);
  EXPECT_EQ(net::auth_verdict(responses_a[0]).status, service::AuthStatus::kAccept);
  EXPECT_EQ(net::auth_verdict(responses_a[1]).status, service::AuthStatus::kAccept);
  EXPECT_EQ(net::auth_verdict(responses_a[2]).status, service::AuthStatus::kRateLimited);
  for (const net::WireResponse& response : responses_b) {
    EXPECT_EQ(net::auth_verdict(response).status, service::AuthStatus::kRateLimited);
  }
}

TEST(ShardedAuthServer, GracefulDrainAnswersInFlightRequestsOnEveryShard) {
  // Both shards first prove they serve (a closed-loop batch per
  // connection), then each connection pipelines 8 more frames without
  // reading. Once the server has *read* them all (the enqueued counter),
  // request_stop() must answer every one before closing: drain answers
  // what was already read on every shard, it does not discard it.
  obs::set_metrics_enabled(true);
  obs::Registry& registry = obs::Registry::instance();
  obs::Counter& enqueued = registry.counter("net.requests_enqueued");

  ServerHarness harness(sharded(2));
  const auto requests = small_workload(harness.registry(), {}, 32);

  net::AuthClient a = harness.client();
  net::AuthClient b = harness.client();
  ASSERT_EQ(a.send_batch({requests.begin(), requests.begin() + 8}).size(), 8u);
  ASSERT_EQ(b.send_batch({requests.begin() + 8, requests.begin() + 16}).size(), 8u);

  const std::uint64_t before = enqueued.value();
  std::string blob_a;
  std::string blob_b;
  for (std::size_t i = 16; i < 24; ++i) blob_a += net::encode_request_frame(requests[i]);
  for (std::size_t i = 24; i < 32; ++i) blob_b += net::encode_request_frame(requests[i]);
  a.send_raw(blob_a);
  b.send_raw(blob_b);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (enqueued.value() - before < 16) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "server never read the pipelined frames";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  harness.server().request_stop();
  EXPECT_EQ(a.recv_until_close(), 8u);
  EXPECT_EQ(b.recv_until_close(), 8u);
  obs::set_metrics_enabled(false);
}

}  // namespace

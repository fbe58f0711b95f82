// Swap-under-traffic tests: the live registry lifecycle driven end to end.
//
// A sharded loopback server keeps answering while the registry underneath
// it moves through epochs (delta appends, compactions, full installs). The
// invariants pinned here are the operational contract of registry/epoch.h:
//
//  (a) every answered request carries a verdict that is bit-exact against
//      *some* published generation — and requests for devices no epoch
//      touched carry the same verdict in every generation, so for the bulk
//      of traffic the check is strict equality;
//  (b) no response is dropped or misordered across N swaps at every
//      {shards} x {threads} combination (positional comparison against
//      per-epoch expected verdicts is order-sensitive by construction);
//  (c) a batch pins ONE snapshot: a swap racing a long verify_batch may
//      land before or after the pin, but never splits the batch;
//  (d) caches cannot answer across a swap (service.cache_stale /
//      service.unknown_cache_stale pin the eviction).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "puf/crp.h"
#include "puf/schemes.h"
#include "registry/epoch.h"
#include "registry/registry.h"
#include "service/auth_service.h"
#include "serving_harness.h"

namespace {

using namespace ropuf;
using test::small_registry;

/// A synthetic enrollment with the fleet's layout — stands in for a
/// refreshed or newly enrolled device without minting silicon.
puf::ConfigurableEnrollment fresh_enrollment(std::uint64_t seed) {
  Rng rng(seed);
  const puf::BoardLayout layout{5, 16};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  return puf::configurable_enroll(values, layout, puf::SelectionCase::kIndependent);
}

/// The genuine response for (enrollment, challenge): what a healthy prover
/// holding exactly this enrollment would answer.
service::AuthRequest request_for(const puf::ConfigurableEnrollment& enrollment,
                                 std::uint64_t device_id, std::uint64_t challenge,
                                 std::size_t bits) {
  const puf::CrpOracle oracle(&enrollment, bits);
  return {device_id, challenge, oracle.reference(challenge)};
}

registry::DeltaSegment delta_upserting(std::uint64_t device_id,
                                       const puf::ConfigurableEnrollment& enrollment) {
  registry::DeltaBuilder builder;
  builder.upsert(device_id, enrollment);
  return registry::DeltaSegment::from_bytes(builder.build());
}

registry::DeltaSegment delta_retiring(std::uint64_t device_id) {
  registry::DeltaBuilder builder;
  builder.retire(device_id);
  return registry::DeltaSegment::from_bytes(builder.build());
}

bool same_verdict(const service::AuthVerdict& a, const service::AuthVerdict& b) {
  return a.status == b.status && a.distance == b.distance &&
         a.response_bits == b.response_bits;
}

/// Offline expected verdicts for every generation the swap schedule will
/// publish: element k answers "what would epoch 1+k say to each request".
std::vector<std::vector<service::AuthVerdict>> expected_per_generation(
    const registry::Registry& base,
    const std::vector<registry::DeltaSegment>& chain,
    const std::vector<service::AuthRequest>& requests,
    const service::AuthServiceOptions& options) {
  std::vector<std::vector<service::AuthVerdict>> expected;
  for (std::size_t k = 0; k <= chain.size(); ++k) {
    const registry::EpochRegistry epochs(
        base, std::vector<registry::DeltaSegment>(chain.begin(), chain.begin() + k));
    const service::AuthService svc(&epochs, options);
    expected.push_back(svc.verify_batch(requests));
  }
  return expected;
}

// ------------------------------------------------- swap-under-traffic matrix

TEST(SwapUnderTraffic, EveryAnswerMatchesItsAdmissionEpochAcrossTheMatrix) {
  const registry::Registry base = small_registry();
  const service::AuthServiceOptions auth_options;

  // The swap schedule covers every overlay outcome: retire an enrolled
  // device, refresh another with different silicon, enroll a brand-new id,
  // retire one more.
  const std::uint64_t retired_a = base.device_id_at(1);
  const std::uint64_t refreshed = base.device_id_at(2);
  const std::uint64_t newcomer = 0xdeadbeef;
  const std::uint64_t retired_b = base.device_id_at(3);
  const puf::ConfigurableEnrollment refreshed_enrollment = fresh_enrollment(0xa6ed);
  const puf::ConfigurableEnrollment newcomer_enrollment = fresh_enrollment(0x11ea);
  std::vector<registry::DeltaSegment> chain;
  chain.push_back(delta_retiring(retired_a));
  chain.push_back(delta_upserting(refreshed, refreshed_enrollment));
  chain.push_back(delta_upserting(newcomer, newcomer_enrollment));
  chain.push_back(delta_retiring(retired_b));

  // The workload: several rounds of genuine requests for the first eight
  // base devices (epoch-sensitive for the retired/refreshed ones, epoch-
  // stable for the rest), plus the newcomer's genuine response (unknown
  // until its delta lands) and a never-enrolled id.
  std::vector<service::AuthRequest> requests;
  for (std::uint64_t round = 0; round < 8; ++round) {
    for (std::size_t d = 0; d < 8; ++d) {
      const std::uint64_t id = base.device_id_at(d);
      requests.push_back(request_for(base.lookup(id), id, 1000 * round + d,
                                     auth_options.response_bits));
    }
    requests.push_back(request_for(newcomer_enrollment, newcomer, 7000 + round,
                                   auth_options.response_bits));
    requests.push_back(service::AuthRequest{0x5097e, 9000 + round, BitVec(16)});
  }

  const auto expected =
      expected_per_generation(base, chain, requests, auth_options);
  // The schedule must actually change verdicts, or the matrix proves
  // nothing: the retired device flips kAccept -> kUnknownDevice, the
  // refreshed one kAccept -> kReject, the newcomer kUnknownDevice ->
  // kAccept.
  ASSERT_FALSE(same_verdict(expected.front()[1], expected.back()[1]));
  ASSERT_FALSE(same_verdict(expected.front()[8], expected.back()[8]));

  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      set_thread_budget_override(threads);

      registry::EpochRegistry epochs(base);
      service::AuthServiceOptions svc_options = auth_options;
      svc_options.admission_shards = shards;
      const service::AuthService svc(&epochs, svc_options);
      net::ServerOptions server_options;
      server_options.shards = shards;
      server_options.port = 0;
      server_options.poll_interval_ms = 2;
      net::AuthServer server(&svc, server_options);
      const std::uint16_t port = server.bind_and_listen();
      std::thread server_thread([&server] { server.run(); });

      // Two concurrent connections pump the workload in small pipelined
      // chunks while the main thread publishes the swap schedule — every
      // epoch transition happens under live traffic.
      constexpr std::size_t kConnections = 2;
      std::vector<std::vector<service::AuthRequest>> sent(kConnections);
      for (std::size_t i = 0; i < requests.size(); ++i) {
        sent[i % kConnections].push_back(requests[i]);
      }
      std::vector<std::vector<net::WireResponse>> answers(kConnections);
      std::atomic<bool> churn_done{false};
      std::vector<std::thread> senders;
      for (std::size_t c = 0; c < kConnections; ++c) {
        senders.emplace_back([&, c] {
          net::ClientOptions client_options;
          client_options.port = port;
          client_options.window = 8;
          // Keep the connection busy until the whole schedule has been
          // published, so late swaps also happen under traffic.
          do {
            net::AuthClient client(client_options);
            client.connect();
            const auto round = client.send_batch(sent[c]);
            if (answers[c].empty()) {
              answers[c] = round;
            }
          } while (!churn_done.load(std::memory_order_acquire));
        });
      }

      for (const registry::DeltaSegment& delta : chain) {
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        epochs.append_delta(delta);
      }
      churn_done.store(true, std::memory_order_release);
      for (std::thread& sender : senders) sender.join();

      // (b) zero drops, and positional (order-sensitive) verdict checks.
      for (std::size_t c = 0; c < kConnections; ++c) {
        ASSERT_EQ(answers[c].size(), sent[c].size())
            << "shards=" << shards << " threads=" << threads;
      }
      for (std::size_t i = 0; i < requests.size(); ++i) {
        const net::WireResponse& response = answers[i % kConnections][i / kConnections];
        const service::AuthVerdict verdict = net::auth_verdict(response);
        // (a) the verdict must be exactly what one of the published
        // generations says for this request — nothing in between.
        bool matched = false;
        for (const auto& generation : expected) {
          if (same_verdict(verdict, generation[i])) {
            matched = true;
            break;
          }
        }
        EXPECT_TRUE(matched) << "request " << i << " shards=" << shards
                             << " threads=" << threads << " status "
                             << static_cast<int>(verdict.status);
      }

      // Final quiesce round: all swaps published, so the last generation's
      // verdicts must match exactly, digest included.
      net::ClientOptions client_options;
      client_options.port = port;
      net::AuthClient quiesce(client_options);
      quiesce.connect();
      std::vector<service::AuthVerdict> final_verdicts;
      for (const net::WireResponse& response : quiesce.send_batch(requests)) {
        final_verdicts.push_back(net::auth_verdict(response));
      }
      EXPECT_EQ(service::verdict_digest(final_verdicts),
                service::verdict_digest(expected.back()))
          << "shards=" << shards << " threads=" << threads;
      EXPECT_EQ(svc.epoch(), 1 + chain.size());

      server.request_stop();
      server_thread.join();
    }
  }
  set_thread_budget_override(0);
}

TEST(SwapUnderTraffic, ABatchPinsOneSnapshotEvenWhenTheSwapRacesIt) {
  // (c): a verify_batch that races an epoch swap must answer entirely from
  // one generation. The victim device flips kAccept -> kUnknownDevice at
  // the swap; whichever side of the pin the swap lands on, the batch's
  // first and last verdicts for it must agree.
  const registry::Registry base = small_registry();
  const service::AuthServiceOptions auth_options;
  const std::uint64_t victim = base.device_id_at(0);
  const puf::ConfigurableEnrollment enrollment = base.lookup(victim);

  for (int attempt = 0; attempt < 8; ++attempt) {
    registry::EpochRegistry epochs(base);
    const service::AuthService svc(&epochs, auth_options);
    std::vector<service::AuthRequest> batch;
    for (std::uint64_t i = 0; i < 4096; ++i) {
      batch.push_back(
          request_for(enrollment, victim, i, auth_options.response_bits));
    }

    std::vector<service::AuthVerdict> verdicts;
    std::thread verifier([&] { verdicts = svc.verify_batch(batch); });
    epochs.append_delta(delta_retiring(victim));
    verifier.join();

    ASSERT_EQ(verdicts.size(), batch.size());
    const service::AuthStatus first = verdicts.front().status;
    EXPECT_TRUE(first == service::AuthStatus::kAccept ||
                first == service::AuthStatus::kUnknownDevice);
    for (const service::AuthVerdict& verdict : verdicts) {
      ASSERT_EQ(verdict.status, first) << "batch split across generations";
    }
  }
}

// ------------------------------------------------------- cache invalidation

TEST(EpochSwapCache, StaleEntriesNeverAnswerAfterTheSwap) {
  obs::set_metrics_enabled(true);
  obs::Registry& metrics = obs::Registry::instance();
  obs::Counter& cache_stale = metrics.counter("service.cache_stale");
  obs::Counter& unknown_stale = metrics.counter("service.unknown_cache_stale");

  const registry::Registry base = small_registry();
  registry::EpochRegistry epochs(base);
  service::AuthServiceOptions options;
  options.cache_capacity = 64;
  options.unknown_cache_capacity = 16;
  const service::AuthService svc(&epochs, options);

  const std::uint64_t refreshed = base.device_id_at(0);
  const puf::ConfigurableEnrollment aged = base.lookup(refreshed);
  const puf::ConfigurableEnrollment current = fresh_enrollment(0xd21f7);
  const std::uint64_t latecomer = 0xbeef;
  const puf::ConfigurableEnrollment late_enrollment = fresh_enrollment(0x1a7e);

  // Populate both caches under epoch 1.
  EXPECT_EQ(svc.verify(request_for(aged, refreshed, 1, options.response_bits)).status,
            service::AuthStatus::kAccept);
  EXPECT_EQ(svc.verify(request_for(late_enrollment, latecomer, 2,
                                   options.response_bits))
                .status,
            service::AuthStatus::kUnknownDevice);
  ASSERT_GE(svc.cache_size(), 1u);
  ASSERT_GE(svc.unknown_cache_size(), 1u);

  const std::uint64_t stale_before = cache_stale.value();
  const std::uint64_t unknown_stale_before = unknown_stale.value();

  // Epoch 2 replaces one record and enrolls the other id.
  registry::DeltaBuilder swap;
  swap.upsert(refreshed, current);
  swap.upsert(latecomer, late_enrollment);
  epochs.append_delta(registry::DeltaSegment::from_bytes(swap.build()));
  ASSERT_EQ(svc.epoch(), 2u);

  // The cached epoch-1 lookup must not answer: the aged prover now fails
  // against the refreshed record...
  EXPECT_EQ(svc.verify(request_for(aged, refreshed, 1, options.response_bits)).status,
            service::AuthStatus::kReject);
  // ...and the cached unknown-device outcome must not shadow the new
  // enrollment.
  EXPECT_EQ(svc.verify(request_for(late_enrollment, latecomer, 2,
                                   options.response_bits))
                .status,
            service::AuthStatus::kAccept);
  // The swap-invalidation contract is observable: both stale counters
  // moved.
  EXPECT_EQ(cache_stale.value(), stale_before + 1);
  EXPECT_EQ(unknown_stale.value(), unknown_stale_before + 1);

  // Re-resolved entries answer from cache again at the new epoch — a
  // genuine current-enrollment prover accepts twice in a row.
  EXPECT_EQ(
      svc.verify(request_for(current, refreshed, 3, options.response_bits)).status,
      service::AuthStatus::kAccept);
  EXPECT_EQ(
      svc.verify(request_for(current, refreshed, 3, options.response_bits)).status,
      service::AuthStatus::kAccept);
  obs::set_metrics_enabled(false);
}

// ----------------------------------------------------------- server reload

TEST(ServerReload, RequestReloadSwapsEpochsAcrossShardsWithoutDroppingTraffic) {
  const registry::Registry base = small_registry();
  registry::EpochRegistry epochs(base);
  const service::AuthService svc(&epochs, {});

  net::ServerOptions options;
  options.shards = 2;
  options.port = 0;
  options.poll_interval_ms = 2;
  net::AuthServer server(&svc, options);

  const std::uint64_t victim = base.device_id_at(0);
  // The handler is what ropuf_serve wires on SIGHUP: install a new
  // generation. Registered before run(), read by shard 0 between sweeps.
  server.set_reload_handler([&epochs, &base, victim] {
    epochs.install(base, {delta_retiring(victim)});
  });
  const std::uint16_t port = server.bind_and_listen();
  std::thread server_thread([&server] { server.run(); });

  net::ClientOptions client_options;
  client_options.port = port;
  net::AuthClient client(client_options);
  client.connect();
  const service::AuthServiceOptions auth_defaults;
  const auto request =
      request_for(base.lookup(victim), victim, 5, auth_defaults.response_bits);
  ASSERT_EQ(net::auth_verdict(client.send_batch({request})[0]).status,
            service::AuthStatus::kAccept);

  // request_reload is the async-signal-safe half of the SIGHUP path; both
  // reactor shards must observe the new generation.
  server.request_reload();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.reloads_applied() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "reload never applied";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(svc.epoch(), 2u);

  // The same connection keeps serving — and a second connection (round-
  // robin lands it on the other shard) sees the new epoch too.
  EXPECT_EQ(net::auth_verdict(client.send_batch({request})[0]).status,
            service::AuthStatus::kUnknownDevice);
  net::AuthClient other(client_options);
  other.connect();
  EXPECT_EQ(net::auth_verdict(other.send_batch({request})[0]).status,
            service::AuthStatus::kUnknownDevice);

  server.request_stop();
  server_thread.join();
}

TEST(ServerReload, AFailingReloadHandlerCountsAndServingContinues) {
  obs::set_metrics_enabled(true);
  obs::Registry& metrics = obs::Registry::instance();
  obs::Counter& failures = metrics.counter("net.reload_failures");
  const std::uint64_t failures_before = failures.value();

  const registry::Registry base = small_registry();
  registry::EpochRegistry epochs(base);
  const service::AuthService svc(&epochs, {});

  net::ServerOptions options;
  options.port = 0;
  options.poll_interval_ms = 2;
  net::AuthServer server(&svc, options);
  server.set_reload_handler(
      [] { throw Error("reload: registry file corrupt mid-rewrite"); });
  const std::uint16_t port = server.bind_and_listen();
  std::thread server_thread([&server] { server.run(); });

  server.request_reload();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.reloads_applied() == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "reload never coalesced";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(failures.value(), failures_before + 1);
  EXPECT_EQ(svc.epoch(), 1u) << "a failed reload must keep the current epoch";

  // The server still answers.
  net::ClientOptions client_options;
  client_options.port = port;
  net::AuthClient client(client_options);
  client.connect();
  const service::AuthServiceOptions auth_defaults;
  const std::uint64_t device = base.device_id_at(0);
  const auto request =
      request_for(base.lookup(device), device, 5, auth_defaults.response_bits);
  EXPECT_EQ(net::auth_verdict(client.send_batch({request})[0]).status,
            service::AuthStatus::kAccept);

  server.request_stop();
  server_thread.join();
  obs::set_metrics_enabled(false);
}

}  // namespace

// Tests for the batched authentication engine: verdict semantics, graceful
// degradation (unknown device / corrupt record / malformed request), the
// enrollment cache's capacity and LRU behavior, and the determinism
// contract — batch verdicts bit-identical at any thread budget, with or
// without the cache.
#include "service/auth_service.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "obs/metrics.h"
#include "puf/crp.h"
#include "registry/format.h"
#include "silicon/faults.h"

namespace ropuf::service {
namespace {

registry::Registry test_registry(std::size_t devices = 16) {
  registry::FleetSpec spec;
  spec.devices = devices;
  spec.stages = 5;
  spec.pairs = 16;
  spec.seed = 0x7e57;
  return registry::Registry::from_bytes(registry::build_fleet_registry(spec));
}

AuthServiceOptions small_options() {
  AuthServiceOptions options;
  options.response_bits = 8;
  options.max_distance = 1;
  options.cache_capacity = 8;  // single shard: exact LRU
  return options;
}

/// The exact response the enrolled device would give noise-free.
BitVec true_response(const registry::Registry& registry, std::uint64_t device_id,
                     std::uint64_t challenge, std::size_t bits) {
  const auto enrollment = registry.lookup(device_id);
  const puf::CrpOracle oracle(&enrollment, bits);
  return oracle.reference(challenge);
}

TEST(AuthService, AcceptsTheTrueResponseAndTolerableNoise) {
  const auto registry = test_registry();
  const AuthService service(&registry, small_options());
  const std::uint64_t id = registry.device_id_at(3);

  AuthRequest request{id, 0xc4a11e46e, true_response(registry, id, 0xc4a11e46e, 8)};
  AuthVerdict verdict = service.verify(request);
  EXPECT_EQ(verdict.status, AuthStatus::kAccept);
  EXPECT_EQ(verdict.distance, 0u);
  EXPECT_EQ(verdict.response_bits, 8u);

  // One flipped bit: still within max_distance = 1.
  request.response.set(0, !request.response.get(0));
  verdict = service.verify(request);
  EXPECT_EQ(verdict.status, AuthStatus::kAccept);
  EXPECT_EQ(verdict.distance, 1u);
}

TEST(AuthService, RejectsResponsesPastTheThreshold) {
  const auto registry = test_registry();
  const AuthService service(&registry, small_options());
  const std::uint64_t id = registry.device_id_at(0);

  AuthRequest request{id, 42, true_response(registry, id, 42, 8)};
  for (std::size_t i = 0; i < 4; ++i) request.response.set(i, !request.response.get(i));
  const AuthVerdict verdict = service.verify(request);
  EXPECT_EQ(verdict.status, AuthStatus::kReject);
  EXPECT_EQ(verdict.distance, 4u);
}

TEST(AuthService, DegradesGracefullyInsteadOfThrowing) {
  const auto registry = test_registry();
  const AuthService service(&registry, small_options());
  const std::uint64_t known = registry.device_id_at(0);

  // Unknown device: id 1 is effectively never minted (ids are SplitMix64
  // draws); skip it in the vanishingly unlikely collision case.
  ASSERT_FALSE(registry.contains(1));
  const AuthVerdict unknown = service.verify(AuthRequest{1, 42, BitVec(8)});
  EXPECT_EQ(unknown.status, AuthStatus::kUnknownDevice);
  // Degradation verdicts report the bits the verifier expected; with no
  // record to clamp against, that is the configured response_bits.
  EXPECT_EQ(unknown.response_bits, 8u);

  // Malformed: empty response (a degraded prover) and a wrong-length one.
  EXPECT_EQ(service.verify(AuthRequest{known, 42, BitVec()}).status,
            AuthStatus::kMalformedRequest);
  EXPECT_EQ(service.verify(AuthRequest{known, 42, BitVec(5)}).status,
            AuthStatus::kMalformedRequest);
}

/// A 3-device registry whose first record decodes to kBadRecord (mode byte
/// tampered, checksums repatched). Returns the registry and stores the
/// corrupt device's id.
registry::Registry registry_with_corrupt_first(std::uint64_t* corrupt_id) {
  registry::RegistryBuilder builder;
  registry::FleetSpec spec;
  spec.devices = 3;
  spec.seed = 0x7e57;
  for (auto& record : registry::mint_fleet(spec)) {
    builder.add(record.device_id, std::move(record.enrollment));
  }
  std::string bytes = builder.build();

  const auto peek_u64 = [&](std::size_t offset) {
    std::uint64_t v = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[offset + b]))
           << (8 * b);
    }
    return v;
  };
  const auto poke_u32 = [&](std::size_t offset, std::uint32_t v) {
    for (std::size_t b = 0; b < 4; ++b) {
      bytes[offset + b] = static_cast<char>((v >> (8 * b)) & 0xff);
    }
  };
  const std::uint64_t devices = peek_u64(16);
  const std::size_t records_offset = 68 + devices * 24;
  *corrupt_id = peek_u64(68);
  bytes[records_offset + peek_u64(68 + 8)] = 7;  // mode byte outside {0, 1}
  poke_u32(56, registry::crc32(std::string_view(bytes).substr(68, devices * 24)));
  poke_u32(60, registry::crc32(std::string_view(bytes).substr(records_offset)));
  poke_u32(64, registry::crc32(std::string_view(bytes).substr(0, 64)));
  return registry::Registry::from_bytes(bytes);
}

TEST(AuthService, CorruptRecordYieldsItsOwnVerdict) {
  // The service must answer the corrupt-record verdict, not propagate the
  // FormatError, and other devices must be unaffected.
  std::uint64_t first_id = 0;
  const auto registry = registry_with_corrupt_first(&first_id);
  const AuthService service(&registry, small_options());
  const AuthVerdict corrupt = service.verify(AuthRequest{first_id, 42, BitVec(8)});
  EXPECT_EQ(corrupt.status, AuthStatus::kCorruptRecord);
  EXPECT_EQ(corrupt.response_bits, 8u);
  const std::uint64_t healthy = registry.device_id_at(1);
  EXPECT_EQ(service
                .verify(AuthRequest{healthy, 42,
                                    true_response(registry, healthy, 42, 8)})
                .status,
            AuthStatus::kAccept);
}

TEST(AuthService, ResponseBitsClampToThePairCount) {
  const auto registry = test_registry();
  AuthServiceOptions options;
  options.response_bits = 64;  // above the enrolled 16 pairs
  options.max_distance = 0;
  const AuthService service(&registry, options);
  const std::uint64_t id = registry.device_id_at(0);
  const AuthVerdict verdict =
      service.verify(AuthRequest{id, 9, true_response(registry, id, 9, 16)});
  EXPECT_EQ(verdict.status, AuthStatus::kAccept);
  EXPECT_EQ(verdict.response_bits, 16u);
}

// -------------------------------------------------------------------- cache

TEST(EnrollmentCache, BoundsItsSizeAndEvictsLeastRecentlyUsed) {
  EnrollmentCache cache(3);  // < 64: one shard, exact LRU order
  EXPECT_EQ(cache.capacity(), 3u);
  const auto entry = [](std::size_t pairs) {
    auto e = std::make_shared<CachedLookup>();
    e->enrollment.emplace();
    e->enrollment->layout.pair_count = pairs;
    return std::shared_ptr<const CachedLookup>(std::move(e));
  };
  cache.put(1, entry(1));
  cache.put(2, entry(2));
  cache.put(3, entry(3));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_NE(cache.get(1), nullptr);  // refresh 1: 2 becomes the LRU
  cache.put(4, entry(4));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.get(2), nullptr);  // evicted
  EXPECT_NE(cache.get(1), nullptr);
  EXPECT_NE(cache.get(3), nullptr);
  EXPECT_NE(cache.get(4), nullptr);
}

TEST(EnrollmentCache, ZeroCapacityDisablesCaching) {
  EnrollmentCache cache(0);
  EXPECT_EQ(cache.capacity(), 0u);
  cache.put(1, std::make_shared<const CachedLookup>());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.get(1), nullptr);
}

TEST(EnrollmentCache, DisabledCacheCountsBypassesNotMisses) {
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();
  EnrollmentCache disabled(0);
  EXPECT_EQ(disabled.get(7), nullptr);
  EXPECT_EQ(disabled.get(7), nullptr);
  EnrollmentCache enabled(4);
  EXPECT_EQ(enabled.get(7), nullptr);
  const auto snapshot = obs::Registry::instance().snapshot();
  obs::set_metrics_enabled(false);
  EXPECT_EQ(snapshot.counters.at("service.cache_bypass"), 2u);
  EXPECT_EQ(snapshot.counters.at("service.cache_misses"), 1u);
}

TEST(EnrollmentCache, ShardedCapacityNeverExceedsTheConfiguredTotal) {
  EnrollmentCache cache(64);  // 8 shards x 8 entries
  EXPECT_EQ(cache.capacity(), 64u);
  for (std::uint64_t id = 1; id <= 1000; ++id) {
    cache.put(id, std::make_shared<const CachedLookup>());
  }
  EXPECT_LE(cache.size(), 64u);
  EXPECT_GT(cache.size(), 0u);
}

TEST(EnrollmentCache, UnevenCapacityIsHonoredExactly) {
  // 100 does not divide by the 8 shards; the remainder spreads over the
  // first shards instead of being silently rounded down to 96.
  EnrollmentCache cache(100);
  EXPECT_EQ(cache.capacity(), 100u);
  for (std::uint64_t id = 1; id <= 4000; ++id) {
    cache.put(id, std::make_shared<const CachedLookup>());
  }
  // Enough keys that every shard saw more inserts than its bound, so the
  // cache sits exactly at (not merely below) the configured capacity.
  EXPECT_EQ(cache.size(), 100u);
}

TEST(AuthService, CacheNeverChangesVerdicts) {
  const auto registry = test_registry();
  AuthServiceOptions cached = small_options();
  AuthServiceOptions uncached = small_options();
  uncached.cache_capacity = 0;
  const AuthService with_cache(&registry, cached);
  const AuthService without_cache(&registry, uncached);

  WorkloadSpec spec;
  spec.requests = 256;
  const auto requests = synthesize_workload(registry, cached, spec);
  // Run the cached batch twice so the second pass is warm.
  with_cache.verify_batch(requests);
  EXPECT_EQ(verdict_digest(with_cache.verify_batch(requests)),
            verdict_digest(without_cache.verify_batch(requests)));
  EXPECT_GT(with_cache.cache_size(), 0u);
}

TEST(AuthService, NegativeCachingAnswersRepeatCorruptAndUnknownFromTheCache) {
  // The amplification-vector regression: a repeat request for a corrupt or
  // unknown device must be answered from the cache — no registry index
  // walk, no record decode, no thrown/caught FormatError — while the
  // verdict stays identical to the uncached one.
  std::uint64_t corrupt_id = 0;
  const auto registry = registry_with_corrupt_first(&corrupt_id);
  const AuthService service(&registry, small_options());
  ASSERT_FALSE(registry.contains(1));

  obs::set_metrics_enabled(true);
  static obs::Counter& lookups =
      obs::Registry::instance().counter("registry.lookups");
  static obs::Counter& decoded =
      obs::Registry::instance().counter("registry.records_decoded");

  const AuthVerdict first_corrupt =
      service.verify(AuthRequest{corrupt_id, 42, BitVec(8)});
  const AuthVerdict first_unknown = service.verify(AuthRequest{1, 42, BitVec(8)});
  EXPECT_EQ(first_corrupt.status, AuthStatus::kCorruptRecord);
  EXPECT_EQ(first_unknown.status, AuthStatus::kUnknownDevice);

  const std::uint64_t lookups_before = lookups.value();
  const std::uint64_t decoded_before = decoded.value();
  const AuthVerdict second_corrupt =
      service.verify(AuthRequest{corrupt_id, 43, BitVec(8)});
  const AuthVerdict second_unknown = service.verify(AuthRequest{1, 43, BitVec(8)});
  obs::set_metrics_enabled(false);

  EXPECT_EQ(lookups.value(), lookups_before);   // no index walk
  EXPECT_EQ(decoded.value(), decoded_before);   // no record decode
  EXPECT_EQ(second_corrupt.status, first_corrupt.status);
  EXPECT_EQ(second_corrupt.response_bits, first_corrupt.response_bits);
  EXPECT_EQ(second_unknown.status, first_unknown.status);
  EXPECT_EQ(second_unknown.response_bits, first_unknown.response_bits);
}

TEST(AuthService, UnknownDeviceSprayCannotEvictEnrolledEntries) {
  // Unknown-device outcomes are drawn from the whole u64 key space, so they
  // are cached in their own (smaller) LRU: spraying random never-enrolled
  // ids competes only with other unknowns, and an enrolled device cached
  // before the spray is still answered without touching the registry after
  // it.
  const auto registry = test_registry();
  AuthServiceOptions options = small_options();
  options.unknown_cache_capacity = 4;
  const AuthService service(&registry, options);

  const std::uint64_t id = registry.device_id_at(0);
  const AuthRequest legit{id, 42, true_response(registry, id, 42, 8)};
  EXPECT_EQ(service.verify(legit).status, AuthStatus::kAccept);
  const std::size_t cached_before = service.cache_size();

  // Spray far past both caches' capacities. Small ids never collide with
  // the registry's SplitMix64-minted ids (asserted, not assumed).
  for (std::uint64_t spray = 1; spray <= 100; ++spray) {
    ASSERT_FALSE(registry.contains(spray));
    EXPECT_EQ(service.verify(AuthRequest{spray, 42, BitVec(8)}).status,
              AuthStatus::kUnknownDevice);
  }
  EXPECT_LE(service.unknown_cache_size(), options.unknown_cache_capacity);
  EXPECT_EQ(service.cache_size(), cached_before);

  obs::set_metrics_enabled(true);
  static obs::Counter& lookups =
      obs::Registry::instance().counter("registry.lookups");
  const std::uint64_t lookups_before = lookups.value();
  EXPECT_EQ(service.verify(legit).status, AuthStatus::kAccept);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(lookups.value(), lookups_before);  // served from the cache
}

// -------------------------------------------------------------- determinism

TEST(AuthService, BatchVerdictsAreBitIdenticalAtAnyThreadBudget) {
  const auto registry = test_registry(32);
  WorkloadSpec spec;
  spec.requests = 512;

  std::uint64_t reference_digest = 0;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    AuthServiceOptions options = small_options();
    options.threads = ThreadBudget(threads);
    const AuthService service(&registry, options);
    const auto requests = synthesize_workload(registry, options, spec);
    const auto verdicts = service.verify_batch(requests);
    ASSERT_EQ(verdicts.size(), spec.requests);
    const std::uint64_t digest = verdict_digest(verdicts);
    if (threads == 1) {
      reference_digest = digest;
    } else {
      EXPECT_EQ(digest, reference_digest) << "threads=" << threads;
    }
  }
}

TEST(AuthService, BatchMatchesElementwiseVerify) {
  const auto registry = test_registry();
  const AuthService service(&registry, small_options());
  WorkloadSpec spec;
  spec.requests = 64;
  const auto requests = synthesize_workload(registry, service.options(), spec);
  const auto batch = service.verify_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const AuthVerdict single = service.verify(requests[i]);
    EXPECT_EQ(batch[i].status, single.status) << i;
    EXPECT_EQ(batch[i].distance, single.distance) << i;
  }
}

// ----------------------------------------------------------------- workload

TEST(SynthesizeWorkload, IsDeterministicAndCoversEveryCategory) {
  const auto registry = test_registry();
  AuthServiceOptions options = small_options();
  WorkloadSpec spec;
  spec.requests = 400;
  spec.forge_rate = 0.3;
  spec.unknown_rate = 0.2;

  const auto a = synthesize_workload(registry, options, spec);
  const auto b = synthesize_workload(registry, options, spec);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].device_id, b[i].device_id) << i;
    EXPECT_EQ(a[i].challenge, b[i].challenge) << i;
    EXPECT_EQ(a[i].response, b[i].response) << i;
  }

  const AuthService service(&registry, options);
  const auto verdicts = service.verify_batch(a);
  std::size_t accepted = 0, rejected = 0, unknown = 0;
  for (const auto& v : verdicts) {
    accepted += v.status == AuthStatus::kAccept ? 1 : 0;
    rejected += v.status == AuthStatus::kReject ? 1 : 0;
    unknown += v.status == AuthStatus::kUnknownDevice ? 1 : 0;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);  // forgeries at 8 bits essentially never pass
  EXPECT_GT(unknown, 0u);
}

TEST(SynthesizeWorkload, DroppedProverReadsDegradeToMalformedRequests) {
  const auto registry = test_registry();
  AuthServiceOptions options = small_options();
  WorkloadSpec spec;
  spec.requests = 200;
  spec.forge_rate = 0.0;
  spec.unknown_rate = 0.0;
  sil::FaultPlan plan;
  plan.dropped_read_rate = 0.2;  // drop-only plan: every fault is terminal
  sil::FaultInjector injector(plan, 0xd20b);
  spec.injector = &injector;

  const auto requests = synthesize_workload(registry, options, spec);
  const AuthService service(&registry, options);
  const auto verdicts = service.verify_batch(requests);
  std::size_t malformed = 0;
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    if (verdicts[i].status == AuthStatus::kMalformedRequest) {
      EXPECT_TRUE(requests[i].response.empty()) << i;
      ++malformed;
    }
  }
  // At a 20% per-bit drop rate nearly every 8-bit readout hits a drop.
  EXPECT_GT(malformed, spec.requests / 2);
  EXPECT_GT(injector.counts().dropped, 0u);
}

TEST(VerdictDigest, IsOrderSensitive) {
  std::vector<AuthVerdict> verdicts(2);
  verdicts[0] = AuthVerdict{AuthStatus::kAccept, 1, 8};
  verdicts[1] = AuthVerdict{AuthStatus::kReject, 5, 8};
  const std::uint64_t forward = verdict_digest(verdicts);
  std::swap(verdicts[0], verdicts[1]);
  EXPECT_NE(verdict_digest(verdicts), forward);
}

}  // namespace
}  // namespace ropuf::service

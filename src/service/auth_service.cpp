#include "service/auth_service.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "puf/crp.h"
#include "registry/format.h"

namespace ropuf::service {
namespace {

/// Nominal per-bit readout value pushed through the workload fault model;
/// the magnitude only matters to glitch scaling, not to any verdict.
constexpr double kNominalReadPs = 1000.0;

/// Requests per parallel chunk in a verify batch.
constexpr std::size_t kBatchGrain = 64;

std::uint64_t mix_id(std::uint64_t id) {
  // SplitMix64 finalizer: spreads sequential ids across shards.
  id += 0x9e3779b97f4a7c15ull;
  id = (id ^ (id >> 30)) * 0xbf58476d1ce4e5b9ull;
  id = (id ^ (id >> 27)) * 0x94d049bb133111ebull;
  return id ^ (id >> 31);
}

}  // namespace

const char* auth_status_name(AuthStatus status) {
  switch (status) {
    case AuthStatus::kAccept: return "accept";
    case AuthStatus::kReject: return "reject";
    case AuthStatus::kUnknownDevice: return "unknown-device";
    case AuthStatus::kCorruptRecord: return "corrupt-record";
    case AuthStatus::kMalformedRequest: return "malformed-request";
    case AuthStatus::kRateLimited: return "rate-limited";
    case AuthStatus::kBudgetExhausted: return "budget-exhausted";
  }
  return "unknown";
}

// -------------------------------------------------------------------- cache

EnrollmentCache::EnrollmentCache(std::size_t capacity, const std::string& metric_prefix)
    : capacity_(capacity) {
  // Small caches stay single-sharded so the capacity bound (and LRU order,
  // which the tests pin) is exact; serving-sized caches spread over 8 shards
  // to keep batch workers off each other's mutex. A capacity that does not
  // divide evenly spreads its remainder over the first shards, so the shard
  // bounds sum to exactly the configured capacity.
  shard_count_ = capacity >= 64 ? 8 : (capacity > 0 ? 1 : 0);
  if (shard_count_ > 0) shards_ = std::make_unique<Shard[]>(shard_count_);
  obs::Registry& registry = obs::Registry::instance();
  hits_ = &registry.counter(metric_prefix + "_hits");
  misses_ = &registry.counter(metric_prefix + "_misses");
  bypasses_ = &registry.counter(metric_prefix + "_bypass");
  evictions_ = &registry.counter(metric_prefix + "_evictions");
  stale_ = &registry.counter(metric_prefix + "_stale");
}

std::size_t EnrollmentCache::shard_index(std::uint64_t device_id) const {
  return mix_id(device_id) % shard_count_;
}

std::size_t EnrollmentCache::shard_capacity(std::size_t s) const {
  return capacity_ / shard_count_ + (s < capacity_ % shard_count_ ? 1 : 0);
}

EnrollmentCache::Entry EnrollmentCache::get(std::uint64_t device_id,
                                            std::uint64_t epoch) {
  if (shard_count_ == 0) {
    // A disabled cache is not a miss: hit/miss rates should describe an
    // *enabled* cache, so cache-off runs count their own bypass series.
    bypasses_->add(1);
    return nullptr;
  }
  Shard& shard = shards_[shard_index(device_id)];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(device_id);
  if (it == shard.map.end()) {
    misses_->add(1);
    return nullptr;
  }
  if (it->second->entry->epoch != epoch) {
    // Stale generation: the registry swapped under this entry. Evict it
    // eagerly — the caller re-resolves against the live snapshot and put()s
    // a fresh entry, so one swap costs each hot device one extra lookup.
    shard.lru.erase(it->second);
    shard.map.erase(it);
    stale_->add(1);
    misses_->add(1);
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  hits_->add(1);
  return it->second->entry;
}

void EnrollmentCache::put(std::uint64_t device_id, Entry entry) {
  if (shard_count_ == 0) return;
  const std::size_t s = shard_index(device_id);
  Shard& shard = shards_[s];
  const std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.map.find(device_id);
  if (it != shard.map.end()) {
    it->second->entry = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  // shard_capacity is >= 1 whenever a shard exists (8 shards only kick in at
  // capacity >= 64), so evicting one entry always makes room.
  if (shard.lru.size() >= shard_capacity(s)) {
    shard.map.erase(shard.lru.back().id);
    shard.lru.pop_back();
    evictions_->add(1);
  }
  shard.lru.push_front(Node{device_id, std::move(entry)});
  shard.map[device_id] = shard.lru.begin();
}

std::size_t EnrollmentCache::size() const {
  std::size_t total = 0;
  for (std::size_t s = 0; s < shard_count_; ++s) {
    const std::lock_guard<std::mutex> lock(shards_[s].mutex);
    total += shards_[s].lru.size();
  }
  return total;
}

// ------------------------------------------------------------------ service

namespace {

/// Single-epoch head for the legacy Registry* constructor; the copy shares
/// the registry's backing bytes, so this is cheap and the caller's lifetime
/// contract is unchanged.
std::unique_ptr<registry::EpochRegistry> owned_head(
    const registry::Registry* registry) {
  ROPUF_REQUIRE(registry != nullptr, "null registry");
  return std::make_unique<registry::EpochRegistry>(*registry);
}

}  // namespace

AuthService::AuthService(const registry::Registry* registry, AuthServiceOptions options)
    : AuthService(owned_head(registry), options) {}

AuthService::AuthService(std::unique_ptr<registry::EpochRegistry> owned,
                         AuthServiceOptions options)
    : AuthService(static_cast<const registry::EpochRegistry*>(owned.get()), options) {
  owned_epochs_ = std::move(owned);
}

AuthService::AuthService(const registry::EpochRegistry* epochs,
                         AuthServiceOptions options)
    : epochs_(epochs),
      options_(options),
      cache_(options.cache_capacity),
      unknown_cache_(options.unknown_cache_capacity, "service.unknown_cache") {
  ROPUF_REQUIRE(epochs_ != nullptr, "null epoch registry");
  ROPUF_REQUIRE(options_.response_bits > 0, "response_bits must be positive");
  ROPUF_REQUIRE(options_.admission_shards > 0, "admission_shards must be positive");
  ROPUF_REQUIRE(!(options_.admission.enabled() || options_.detector.enabled) ||
                    options_.admission.device_capacity >= options_.admission_shards,
                "device_capacity must cover every admission shard");
  // Device states split across slices the way the enrollment cache splits
  // its capacity: base share per slice, remainder spread over the first
  // slices, so the per-slice bounds sum to exactly device_capacity. A
  // slice's detector takes its admission share: both hold one state per
  // device of the slice. Disabled ones are inert but keep accessors safe.
  const std::size_t slices = options_.admission_shards;
  const std::size_t total = options_.admission.device_capacity;
  partitions_.reserve(slices);
  for (std::size_t s = 0; s < slices; ++s) {
    AdmissionOptions admission = options_.admission;
    admission.device_capacity = total / slices + (s < total % slices ? 1 : 0);
    partitions_.push_back(std::make_unique<Partition>(admission, options_.detector));
  }
}

std::size_t AuthService::admission_slice_index(std::uint64_t device_id) const {
  if (partitions_.size() == 1) return 0;
  return mix_id(device_id) % partitions_.size();
}

void AuthService::flush_admission_metrics() const {
  for (const auto& partition : partitions_) partition->admission.flush_metrics();
}

std::uint32_t AuthService::suspicion_level(std::uint64_t device_id) const {
  return partition_of(device_id).detector.level(device_id);
}

AuthVerdict AuthService::verify(const AuthRequest& request) const {
  // Pin the live generation for the duration of this one verdict; a swap
  // between two verify() calls is observable, a swap during one is not.
  return verify_pinned(*epochs_->snapshot(), request);
}

EnrollmentCache::Entry AuthService::resolve_lookup(
    const registry::RegistrySnapshot& snapshot, std::uint64_t device_id) const {
  const std::uint64_t epoch = snapshot.epoch();
  EnrollmentCache::Entry looked_up = cache_.get(device_id, epoch);
  if (looked_up == nullptr) looked_up = unknown_cache_.get(device_id, epoch);
  if (looked_up != nullptr) return looked_up;
  // Resolve against the pinned snapshot once and cache the *outcome* —
  // including the negative ones, so repeat corrupt/unknown traffic never
  // re-walks the registry or pays a thrown FormatError per request.
  // Entries are tagged with the snapshot's epoch: after a swap they stop
  // answering (stale-evicted on first touch), so a replaced or retired
  // record can never serve from cache. Unknown-device outcomes go to
  // their own smaller cache: their key space is unbounded, and a spray of
  // random ids must only ever evict other unknowns, never the enrollments
  // legitimate traffic depends on.
  auto resolved = std::make_shared<CachedLookup>();
  resolved->epoch = epoch;
  try {
    const std::optional<puf::ConfigurableEnrollment> found = snapshot.find(device_id);
    if (found.has_value()) {
      // The decoded record dies with this scope: the entry keeps only the
      // packed response bits and, for a provisioned record, the v2 key.
      resolved->response = found->response();
      // Derive the v2 verification key once per (device, epoch): Rep over
      // the clean enrollment response plus the KCV cross-check, kept as its
      // HMAC midstates. Leaving it disengaged (unprovisioned record or
      // tampered auth material) is itself a cached outcome — every proof
      // against it answers kCorruptRecord without touching the extractor
      // again.
      if (found->has_auth()) {
        const std::optional<crypto::Sha256Digest> key =
            auth::derive_enrollment_key(*found);
        if (key.has_value()) {
          resolved->auth_key.emplace(key->data(), key->size());
          resolved->auth_bits =
              found->auth_helper.size() * found->auth_helper.front().size();
        }
      }
    } else {
      resolved->outcome = CachedLookup::Outcome::kUnknownDevice;
    }
  } catch (const registry::FormatError&) {
    resolved->outcome = CachedLookup::Outcome::kCorruptRecord;
  }
  looked_up = std::move(resolved);
  if (looked_up->outcome == CachedLookup::Outcome::kUnknownDevice) {
    unknown_cache_.put(device_id, looked_up);
  } else {
    cache_.put(device_id, looked_up);
  }
  return looked_up;
}

template <typename Judge>
AuthVerdict AuthService::verify_resolved(const registry::RegistrySnapshot& snapshot,
                                         std::uint64_t device_id,
                                         std::size_t degraded_bits,
                                         const Judge& judge) const {
  static obs::Counter& requests = obs::Registry::instance().counter("service.requests");
  // Indexed by AuthStatus; a verify step returns only these five statuses
  // (admission denials are decided and counted before verification).
  static obs::Counter* const by_status[] = {
      &obs::Registry::instance().counter("service.accepted"),
      &obs::Registry::instance().counter("service.rejected"),
      &obs::Registry::instance().counter("service.unknown_device"),
      &obs::Registry::instance().counter("service.corrupt_record"),
      &obs::Registry::instance().counter("service.malformed")};
  static obs::Histogram& verify_us =
      obs::Registry::instance().latency_histogram("service.verify_us");
  requests.add(1);
  const obs::ScopedLatency verify_timer(verify_us);

  const EnrollmentCache::Entry looked_up = resolve_lookup(snapshot, device_id);
  AuthVerdict verdict{AuthStatus::kUnknownDevice, 0, degraded_bits};
  switch (looked_up->outcome) {
    case CachedLookup::Outcome::kUnknownDevice:
      break;
    case CachedLookup::Outcome::kCorruptRecord:
      verdict.status = AuthStatus::kCorruptRecord;
      break;
    case CachedLookup::Outcome::kEnrolled:
      verdict = judge(*looked_up);
      break;
  }
  by_status[static_cast<std::size_t>(verdict.status)]->add(1);
  return verdict;
}

AuthVerdict AuthService::verify_pinned(const registry::RegistrySnapshot& snapshot,
                                       const AuthRequest& request) const {
  return verify_resolved(
      snapshot, request.device_id, options_.response_bits,
      [&](const CachedLookup& lookup) {
        const std::size_t bits = std::min(options_.response_bits, lookup.response.size());
        if (request.response.size() != bits) {
          return AuthVerdict{AuthStatus::kMalformedRequest, 0, bits};
        }
        const std::size_t distance =
            puf::reference_distance(request.challenge, lookup.response, request.response);
        return AuthVerdict{distance <= options_.max_distance ? AuthStatus::kAccept
                                                             : AuthStatus::kReject,
                           distance, bits};
      });
}

template <typename VerifyOne>
std::vector<AuthVerdict> AuthService::verify_each(std::size_t count,
                                                  const char* span_name,
                                                  const VerifyOne& verify_one) const {
  static obs::Counter& batches = obs::Registry::instance().counter("service.batches");
  static obs::Counter& batch_items =
      obs::Registry::instance().counter("service.batch_items");
  static obs::Histogram& batch_us =
      obs::Registry::instance().latency_histogram("service.batch_us");
  batches.add(1);
  batch_items.add(count);
  const obs::ScopedLatency batch_timer(batch_us);
  const obs::TraceSpan span(span_name);

  // ONE snapshot pin for the whole batch: every verdict resolves against
  // the same registry generation, so an epoch swap mid-batch cannot split
  // the batch — its verdicts stay bit-stable against the epoch it was
  // admitted under (the swap-under-traffic invariant).
  const std::shared_ptr<const registry::RegistrySnapshot> snapshot =
      epochs_->snapshot();
  return parallel_transform<AuthVerdict>(
      count, options_.threads, [&](std::size_t i) { return verify_one(*snapshot, i); },
      kBatchGrain);
}

std::vector<AuthVerdict> AuthService::verify_batch(
    const std::vector<AuthRequest>& requests) const {
  // Admission is order-dependent per-device state, so it is decided in a
  // *serial* pre-pass over arrival order; only the verification of the
  // admitted remainder runs on the pool. The admitted verdicts are then
  // exactly what an admission-free verify_batch would produce for the same
  // subsequence — the digest-parity property the soak harness pins.
  std::vector<Admission> decisions;
  if (options_.admission.enabled()) {
    const bool detect = options_.detector.enabled;
    decisions.resize(requests.size());
    for (std::size_t i = 0; i < requests.size(); ++i) {
      Partition& partition = partition_of(requests[i].device_id);
      // The detector's escalation ladder tightens a suspicious device's
      // effective knobs at decision time; a neutral penalty reproduces the
      // static admission decision bit-for-bit.
      const AdmissionPenalty penalty =
          detect ? partition.detector.penalty(requests[i].device_id)
                 : AdmissionPenalty{};
      decisions[i] = partition.admission.admit(requests[i].device_id,
                                               requests[i].challenge, penalty);
    }
  }
  std::vector<AuthVerdict> verdicts = verify_each(
      requests.size(), "service.verify_batch",
      [&](const registry::RegistrySnapshot& snapshot, std::size_t i) {
        switch (decisions.empty() ? Admission::kAdmit : decisions[i]) {
          case Admission::kRateLimited:
            return AuthVerdict{AuthStatus::kRateLimited, 0, options_.response_bits};
          case Admission::kBudgetExhausted:
            return AuthVerdict{AuthStatus::kBudgetExhausted, 0, options_.response_bits};
          case Admission::kAdmit:
            break;
        }
        return verify_pinned(snapshot, requests[i]);
      });
  // Detector feedback is a serial post-pass like admission is a serial
  // pre-pass: the batch's observations stream in arrival order, so the
  // suspicion state (and with it the next batch's penalties) is
  // deterministic at any thread budget — and never a verdict change.
  if (options_.detector.enabled) {
    for (std::size_t i = 0; i < requests.size(); ++i) {
      StreamObservation observation;
      observation.challenge = requests[i].challenge;
      observation.guess_weight = requests[i].response.popcount();
      observation.answered = verdicts[i].status == AuthStatus::kAccept ||
                             verdicts[i].status == AuthStatus::kReject;
      observation.accepted = verdicts[i].status == AuthStatus::kAccept;
      observation.distance = verdicts[i].distance;
      partition_of(requests[i].device_id)
          .detector.observe(requests[i].device_id, observation);
    }
  }
  return verdicts;
}

AuthVerdict AuthService::verify_proof(const ProofRequest& request) const {
  return verify_proof_pinned(*epochs_->snapshot(), request);
}

AuthVerdict AuthService::verify_proof_pinned(
    const registry::RegistrySnapshot& snapshot, const ProofRequest& request) const {
  return verify_resolved(
      snapshot, request.device_id, 0, [&](const CachedLookup& lookup) {
        if (!lookup.auth_key.has_value()) {
          // Enrolled but not provisioned for v2 (or its auth material failed
          // the key check): the record cannot back a proof.
          return AuthVerdict{AuthStatus::kCorruptRecord, 0, 0};
        }
        // response_bits reports the helper-covered span; distance is always
        // 0 — the whole point of v2 is that no distance oracle leaves the
        // verifier.
        const bool valid = auth::verify_tag(*lookup.auth_key, request.nonce,
                                            request.request_id, request.device_id,
                                            request.tag);
        return AuthVerdict{valid ? AuthStatus::kAccept : AuthStatus::kReject, 0,
                           lookup.auth_bits};
      });
}

std::vector<AuthVerdict> AuthService::verify_proof_batch(
    const std::vector<ProofRequest>& requests) const {
  // No admission pre-pass and no post-passes: a proof verdict is a pure
  // function of its request and the pinned registry, so the batch is
  // bit-identical at any thread budget.
  return verify_each(requests.size(), "service.verify_proof_batch",
                     [&](const registry::RegistrySnapshot& snapshot, std::size_t i) {
                       return verify_proof_pinned(snapshot, requests[i]);
                     });
}

// ----------------------------------------------------------------- workload

std::vector<AuthRequest> synthesize_workload(const registry::Registry& registry,
                                             const AuthServiceOptions& options,
                                             const WorkloadSpec& spec) {
  ROPUF_REQUIRE(registry.device_count() > 0, "cannot synthesize against an empty registry");
  ROPUF_REQUIRE(spec.flip_rate >= 0.0 && spec.flip_rate <= 1.0,
                "flip_rate must be in [0, 1]");
  ROPUF_REQUIRE(spec.forge_rate >= 0.0 && spec.unknown_rate >= 0.0 &&
                    spec.forge_rate + spec.unknown_rate <= 1.0,
                "forge_rate + unknown_rate must stay within [0, 1]");

  Rng rng(spec.seed);
  std::vector<AuthRequest> requests;
  requests.reserve(spec.requests);
  for (std::size_t r = 0; r < spec.requests; ++r) {
    AuthRequest request;
    request.challenge = rng.next_u64();
    const double category = rng.uniform();

    if (category < spec.unknown_rate) {
      // An id outside the enrolled population; the response content is
      // irrelevant (the unknown-device verdict fires before comparison).
      do {
        request.device_id = rng.next_u64();
      } while (request.device_id == 0 || registry.contains(request.device_id));
      BitVec response(options.response_bits);
      for (std::size_t i = 0; i < response.size(); ++i) response.set(i, rng.flip());
      request.response = std::move(response);
      requests.push_back(std::move(request));
      continue;
    }

    const std::size_t device_index = rng.uniform_below(registry.device_count());
    request.device_id = registry.device_id_at(device_index);
    const puf::ConfigurableEnrollment enrollment = registry.lookup(request.device_id);
    const std::size_t bits = std::min(options.response_bits, enrollment.layout.pair_count);

    if (category < spec.unknown_rate + spec.forge_rate) {
      // Forged attempt: right shape, random content.
      BitVec response(bits);
      for (std::size_t i = 0; i < bits; ++i) response.set(i, rng.flip());
      request.response = std::move(response);
      requests.push_back(std::move(request));
      continue;
    }

    // Legitimate prover: the enrollment-time reference with per-bit readout
    // noise, optionally pushed through the fault model. A dropped read is
    // the hardened readout's terminal condition (retry budget spent): the
    // prover degrades the whole response rather than fabricating bits, and
    // the service answers kMalformedRequest for it.
    const puf::CrpOracle oracle(&enrollment, bits);
    const BitVec reference = oracle.reference(request.challenge);
    try {
      BitVec response(bits);
      for (std::size_t i = 0; i < bits; ++i) {
        bool bit = reference.get(i) ^ (rng.uniform() < spec.flip_rate);
        if (spec.injector != nullptr) {
          const sil::FaultInjector::ReadOutcome outcome =
              spec.injector->apply(i, kNominalReadPs);
          if (outcome.dropped) {
            throw MeasurementFault(FaultKind::kRetryExhausted,
                                   "prover readout dropped past the retry budget");
          }
          if (outcome.kind != FaultKind::kNone) bit = !bit;
        }
        response.set(i, bit);
      }
      request.response = std::move(response);
    } catch (const MeasurementFault&) {
      request.response = BitVec();
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<ProofIntent> synthesize_proof_workload(const registry::Registry& registry,
                                                   const WorkloadSpec& spec) {
  ROPUF_REQUIRE(registry.device_count() > 0,
                "cannot synthesize against an empty registry");
  ROPUF_REQUIRE(spec.flip_rate >= 0.0 && spec.flip_rate <= 1.0,
                "flip_rate must be in [0, 1]");
  ROPUF_REQUIRE(spec.forge_rate >= 0.0 && spec.unknown_rate >= 0.0 &&
                    spec.forge_rate + spec.unknown_rate <= 1.0,
                "forge_rate + unknown_rate must stay within [0, 1]");

  Rng rng(spec.seed);
  std::vector<ProofIntent> intents;
  intents.reserve(spec.requests);
  for (std::size_t r = 0; r < spec.requests; ++r) {
    ProofIntent intent;
    intent.request_id = r + 1;
    const double category = rng.uniform();

    if (category < spec.unknown_rate) {
      do {
        intent.device_id = rng.next_u64();
      } while (intent.device_id == 0 || registry.contains(intent.device_id));
      intents.push_back(intent);
      continue;
    }

    const std::size_t device_index = rng.uniform_below(registry.device_count());
    intent.device_id = registry.device_id_at(device_index);
    if (category < spec.unknown_rate + spec.forge_rate) {
      // Forger: right identity, no silicon — keyless, so the client sends
      // the all-zeros tag an HMAC output can never equal.
      intents.push_back(intent);
      continue;
    }

    // Legitimate prover: re-measure the enrolled response with per-bit
    // flips and run Rep. Within the code's correction radius the enrolled
    // key comes back; beyond it the prover fails closed (keyless).
    const puf::ConfigurableEnrollment enrollment = registry.lookup(intent.device_id);
    const BitVec reference = enrollment.response();
    BitVec noisy(reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      noisy.set(i, reference.get(i) ^ (rng.uniform() < spec.flip_rate));
    }
    const std::optional<crypto::Sha256Digest> key =
        auth::recover_key(noisy, enrollment);
    if (key.has_value()) {
      intent.has_key = true;
      intent.key = *key;
    }
    intents.push_back(intent);
  }
  return intents;
}

std::uint64_t verdict_digest(const std::vector<AuthVerdict>& verdicts) {
  std::uint64_t digest = 0xcbf29ce484222325ull;  // FNV-1a offset basis
  const auto mix = [&digest](std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      digest ^= (value >> (8 * byte)) & 0xffu;
      digest *= 0x100000001b3ull;
    }
  };
  for (const AuthVerdict& verdict : verdicts) {
    mix(static_cast<std::uint64_t>(verdict.status));
    mix(verdict.distance);
    mix(verdict.response_bits);
  }
  return digest;
}

}  // namespace ropuf::service

// Batched challenge-response authentication over an enrollment registry.
//
// This is the serving layer the ROADMAP's north star asks for: a verifier
// that holds a fleet-scale registry (src/registry/) and answers
// {device_id, challenge, response} requests. Verification follows the
// paper's authentication application: the challenge selects which enrolled
// margin-maximized pairs are compared (puf/crp.h), the claimed response is
// matched against the enrollment-time reference bits, and the verdict is an
// accept iff the Hamming distance stays within a noise threshold.
//
// Serving properties:
//  * Batches execute over the deterministic parallel pool
//    (parallel_for_chunked); verdict i depends only on request i and the
//    immutable registry, so a batch's verdicts are bit-identical at any
//    thread budget.
//  * Record decoding is the per-request cost that matters, so *lookup
//    outcomes* sit in a capacity-bounded sharded LRU cache with hit/miss
//    counters in obs. Negative outcomes are cached too: repeat traffic for
//    a hostile or rotten id costs one shard lookup, never a registry walk
//    or a thrown decode error. Enrolled and corrupt-record outcomes share
//    the main cache (both are keyed by ids actually present in the
//    registry, so their population is bounded); unknown-device outcomes
//    live in a *separate, smaller* cache, because their key space is the
//    whole u64 range — an attacker spraying random ids must not be able to
//    evict legitimate enrollments. Both caches are pure performance layers
//    over the immutable registry: verdicts never depend on their state.
//  * Graceful degradation, not exceptions: an unenrolled device, a record
//    that fails to decode (registry Defect::kBadRecord) and a degraded or
//    malformed request each map to their own verdict status, so one bad
//    request never poisons a batch. Prover-side readout failure reuses the
//    MeasurementFault taxonomy from the fault-injection framework.
//  * Optional admission control (service/admission.h): a deterministic
//    per-device token bucket and CRP-exhaustion/reuse budgets run as a
//    *serial pre-pass* over each batch in arrival order, answering denied
//    requests with kRateLimited/kBudgetExhausted degradation verdicts.
//    Admission is order-dependent state, so it must never run under the
//    parallel pool; only the admitted remainder is verified in parallel,
//    which keeps the admitted verdicts bit-identical to an admission-free
//    verify_batch over the same subsequence at any thread budget. With
//    admission_shards > 1 the per-device states partition into
//    device-id-hash slices (each with its own logical clock), so a device's
//    decisions depend only on its own slice's arrival stream — the property
//    the multi-reactor server's shard-stickiness tests pin.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include <functional>
#include <unordered_set>

#include "auth/auth.h"
#include "common/bitvec.h"
#include "common/parallel.h"
#include "obs/metrics.h"
#include "registry/epoch.h"
#include "registry/registry.h"
#include "service/admission.h"
#include "service/detector.h"
#include "silicon/faults.h"

namespace ropuf::service {

/// One authentication attempt: who claims to be responding, to which
/// challenge, with which response bits.
struct AuthRequest {
  std::uint64_t device_id = 0;
  std::uint64_t challenge = 0;
  BitVec response;
};

/// One protocol-v2 proof verification: the nonce the server issued, the id
/// pair it was bound to, and the prover's HMAC tag. The verdict is a pure
/// function of (registry record, nonce, ids, tag) — no arrival-order state —
/// so proof batches are bit-identical at any thread budget.
struct ProofRequest {
  std::uint64_t request_id = 0;
  std::uint64_t device_id = 0;
  auth::Nonce nonce{};
  auth::Tag tag{};
};

/// What happened to a request. Everything past kReject is a degradation
/// verdict: the service answered instead of throwing.
enum class AuthStatus {
  kAccept,           ///< Hamming distance within the threshold
  kReject,           ///< well-formed, but too far from the reference
  kUnknownDevice,    ///< device id not present in the registry
  kCorruptRecord,    ///< the device's record failed to decode (kBadRecord)
  kMalformedRequest, ///< response empty or of the wrong length
  kRateLimited,      ///< admission: the device's token bucket is empty
  kBudgetExhausted,  ///< admission: CRP or reuse budget spent for the device
};

/// Number of AuthStatus values (CLI tally arrays, wire status validation).
inline constexpr std::size_t kAuthStatusCount = 7;

/// Stable human-readable name for a status (CLI and report code).
const char* auth_status_name(AuthStatus status);

struct AuthVerdict {
  AuthStatus status = AuthStatus::kReject;
  std::size_t distance = 0;       ///< Hamming distance (accept/reject only)
  /// Bits the verifier expected: the enrollment-clamped count whenever the
  /// record decoded (accept/reject/malformed), and the configured
  /// response_bits when it could not (unknown device, corrupt record) — so
  /// every degradation verdict reports a consistent, nonzero expectation.
  std::size_t response_bits = 0;

  bool accepted() const { return status == AuthStatus::kAccept; }
};

/// Knobs of the re-enrollment feedback loop: devices whose verdicts degrade
/// persistently (aging drift pushing distance past the accept threshold)
/// are queued for re-enrollment, closing the lifecycle ROADMAP item 2 names.
/// Tracking is a *serial post-pass* over each batch in arrival order, so the
/// queue contents are deterministic for a given request stream at any thread
/// budget — and verdicts are never altered by it.
struct ReenrollOptions {
  /// Consecutive kReject verdicts that queue a device; 0 disables the loop.
  /// Only kAccept resets the streak: degradation verdicts (unknown, rate
  /// limited, malformed) say nothing about the device's silicon.
  std::size_t fail_threshold = 0;
  /// Bound on tracked failure streaks (LRU-evicted, like admission states).
  std::size_t device_capacity = 1024;
  /// Bound on the pending queue; devices past it are dropped (and counted
  /// under service.reenroll_overflow) until the queue is drained.
  std::size_t queue_capacity = 256;

  bool enabled() const { return fail_threshold > 0; }
};

struct AuthServiceOptions {
  /// Response bits drawn per challenge; clamped per device to its enrolled
  /// pair count (bits are drawn without replacement).
  std::size_t response_bits = 16;
  /// Accept iff Hamming distance <= this (the noise budget).
  std::size_t max_distance = 2;
  /// Total cached lookups (enrolled + corrupt-record outcomes) across all
  /// shards; 0 disables the cache.
  std::size_t cache_capacity = 4096;
  /// Separate bound for cached unknown-device outcomes; 0 disables it.
  /// Kept apart from cache_capacity so a spray of never-enrolled ids
  /// competes only with other unknown ids, never with real enrollments.
  std::size_t unknown_cache_capacity = 256;
  /// Per-device admission control (all-off by default; see admission.h).
  AdmissionOptions admission;
  /// Admission state partitions. 1 (the default) keeps the single global
  /// controller of PR 6. N > 1 splits the per-device states into N slices
  /// routed by device-id hash — the same SplitMix64 hash the enrollment
  /// cache shards by — each with its own logical clock and its own share of
  /// admission.device_capacity. A device always lands in the same slice, so
  /// its token-bucket replay is a function of its slice's arrival stream
  /// only: devices hashed elsewhere (and whichever reactor shard a
  /// connection happens to land on) cannot perturb it. The multi-reactor
  /// server sets this to its shard count so concurrent shards rarely
  /// contend on one admission mutex.
  std::size_t admission_shards = 1;
  /// Online model-building detection (off by default; see detector.h).
  /// Slices alongside admission: one StreamDetector per admission slice,
  /// routed by the same device-id hash, so a device's suspicion state and
  /// its admission state always live together.
  DetectorOptions detector;
  /// Re-enrollment queueing (off by default; see ReenrollOptions).
  ReenrollOptions reenroll;
  ThreadBudget threads;
};

/// One resolved registry lookup, cached positively or negatively. The
/// enrollment is engaged only for kEnrolled; the negative outcomes carry
/// the *reason* so a cache hit reproduces the exact degradation verdict.
struct CachedLookup {
  enum class Outcome {
    kEnrolled,       ///< the device's record decoded; `enrollment` is engaged
    kUnknownDevice,  ///< the id is not in the registry
    kCorruptRecord,  ///< the record raised kBadRecord on decode
  };
  Outcome outcome = Outcome::kEnrolled;
  std::optional<puf::ConfigurableEnrollment> enrollment;
  /// The protocol-v2 verification key, derived once at resolve time for
  /// provisioned records (Rep over the clean enrollment response + KCV
  /// cross-check). Disengaged when the record is unprovisioned or its auth
  /// material fails the cross-check — proofs against it answer
  /// kCorruptRecord without re-running the extractor per request.
  std::optional<crypto::Sha256Digest> auth_key;
  /// Registry epoch the lookup was resolved under. An entry only answers
  /// for its own epoch: a swap (delta append, compaction, SIGHUP reload)
  /// makes every older entry stale, so a replaced record can never serve
  /// from cache after its epoch retires.
  std::uint64_t epoch = 0;
};

/// Sharded LRU of lookup outcomes, keyed by device id. Lookups and
/// inserts lock only one shard, so concurrent batch workers rarely collide.
/// The total entry count never exceeds the configured capacity: a capacity
/// that does not divide evenly by the shard count spreads its remainder over
/// the first shards, so the per-shard bounds sum to exactly capacity().
/// Eviction is per-shard LRU, not global — a key-skewed workload can evict
/// from its hot shard while other shards have room (the SplitMix64 shard hash
/// makes sustained skew unlikely in practice). Hit, miss and eviction
/// counters land in obs under "<metric_prefix>_*" — "service.cache_*" for
/// the service's main cache, "service.unknown_cache_*" for its
/// unknown-device cache; under a parallel batch their values are
/// scheduling-dependent (see docs/observability.md). A disabled cache
/// (capacity 0) counts "<metric_prefix>_bypass" instead of misses, so
/// cache-off A/B runs do not pollute hit-rate dashboards.
class EnrollmentCache {
 public:
  using Entry = std::shared_ptr<const CachedLookup>;

  explicit EnrollmentCache(std::size_t capacity,
                           const std::string& metric_prefix = "service.cache");

  /// The cached lookup, refreshed to most-recently-used; nullptr on miss.
  /// An entry whose tagged epoch differs from `epoch` is *stale*: it is
  /// evicted on the spot, counted under "<metric_prefix>_stale" (and as a
  /// miss, since the caller must re-resolve), and never returned — the
  /// epoch-swap invalidation contract. Callers that don't version their
  /// entries use the default epoch 0 throughout and never see staleness.
  Entry get(std::uint64_t device_id, std::uint64_t epoch = 0);

  /// Inserts (or refreshes) an entry, evicting the shard's least recently
  /// used entry when the shard is full. No-op when the cache is disabled.
  void put(std::uint64_t device_id, Entry entry);

  /// The configured total capacity (shard bounds sum to exactly this).
  std::size_t capacity() const { return capacity_; }
  /// Current entry count (sums shard sizes; exact when quiescent).
  std::size_t size() const;

 private:
  struct Node {
    std::uint64_t id = 0;
    Entry entry;
  };
  struct Shard {
    std::mutex mutex;
    std::list<Node> lru;  ///< front = most recently used
    std::unordered_map<std::uint64_t, std::list<Node>::iterator> map;
  };

  std::size_t shard_index(std::uint64_t device_id) const;
  /// Shard s's entry bound: capacity_/shard_count_, plus one for the first
  /// capacity_%shard_count_ shards.
  std::size_t shard_capacity(std::size_t s) const;

  std::size_t capacity_ = 0;
  std::size_t shard_count_ = 0;
  std::unique_ptr<Shard[]> shards_;
  /// Obs instruments are stable for the process lifetime (obs/metrics.h),
  /// so the constructor resolves them once by name.
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* bypasses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
  obs::Counter* stale_ = nullptr;
};

/// The authentication engine: epoch-versioned registry + options + cache.
///
/// The service always verifies against an EpochRegistry (registry/epoch.h).
/// Every verify pins the current snapshot first; verify_batch pins ONE
/// snapshot for the whole batch, so a mid-batch epoch swap cannot split a
/// batch across generations — its verdicts are bit-stable against the epoch
/// it was admitted under, the invariant the swap-under-traffic tests pin.
/// The legacy Registry* constructor wraps the registry in an owned
/// single-epoch head, so code that never swaps is unchanged.
class AuthService {
 public:
  /// `registry` must outlive the service. Serves a private epoch head
  /// pinned at epoch 1 (copies share the registry's backing bytes).
  AuthService(const registry::Registry* registry, AuthServiceOptions options);

  /// Live-lifecycle form: `epochs` must outlive the service; swaps
  /// published on it are picked up at the next verify/verify_batch.
  AuthService(const registry::EpochRegistry* epochs, AuthServiceOptions options);

  const AuthServiceOptions& options() const { return options_; }
  std::size_t cache_size() const { return cache_.size(); }
  std::size_t unknown_cache_size() const { return unknown_cache_.size(); }

  /// The epoch new requests are admitted under right now.
  std::uint64_t epoch() const { return epochs_->epoch(); }

  /// Verifies one request; never throws on bad input (degradation statuses
  /// cover unknown devices, corrupt records and malformed requests).
  /// Admission-free: admission is an arrival-order property of the request
  /// *stream*, so it lives in verify_batch's serial pre-pass, not here.
  AuthVerdict verify(const AuthRequest& request) const;

  /// Verifies a batch over the parallel pool. With admission disabled (the
  /// default), verdict i is exactly verify(requests[i]). With admission
  /// enabled, a serial pre-pass first decides every request in arrival
  /// order; denied requests answer kRateLimited/kBudgetExhausted and the
  /// admitted remainder is verified in parallel — so the admitted verdicts
  /// match an admission-free batch over the same subsequence. With the
  /// detector enabled too, the pre-pass reads each device's current
  /// escalation penalty before deciding, and a serial post-pass feeds the
  /// batch's observations back to the detector — suspicion changes *which*
  /// requests admit, never what an admitted request's verdict is. Either
  /// way the output order matches the input order and is bit-identical at
  /// any thread budget.
  std::vector<AuthVerdict> verify_batch(const std::vector<AuthRequest>& requests) const;

  /// Verifies one protocol-v2 proof: recomputes HMAC(key, nonce || rid ||
  /// device_id) from the record-derived key and compares in constant time.
  /// kUnknownDevice / kCorruptRecord degradations mirror verify() but report
  /// response_bits 0; an unprovisioned record (no auth material) is a
  /// corrupt record from the v2 path's point of view. Accept/reject verdicts
  /// report distance 0 — the v2 wire deliberately carries no distance
  /// oracle — and response_bits = the helper-covered bit count. Counted in
  /// the same service.* verdict family as verify().
  AuthVerdict verify_proof(const ProofRequest& request) const;

  /// verify_proof over the parallel pool, one snapshot pin for the batch.
  /// Proof verdicts are arrival-order-free (no admission, no re-enrollment
  /// streaks), so the output is bit-identical at any thread budget and any
  /// request order permutation — the shard/thread parity property the v2
  /// digest tests pin.
  std::vector<AuthVerdict> verify_proof_batch(
      const std::vector<ProofRequest>& requests) const;

  /// The first admission slice (the only one at the default
  /// admission_shards = 1; live counters; flush_metrics() for the
  /// per-device deny histogram). Decides kAdmit-everything when the
  /// configured AdmissionOptions are all-off.
  AdmissionController& admission() const { return *admission_.front(); }

  /// Admission partitions (== options().admission_shards).
  std::size_t admission_shard_count() const { return admission_.size(); }
  /// The slice that owns a device's admission state: constant per device,
  /// independent of connections, reactor shards, and arrival order.
  std::size_t admission_slice_index(std::uint64_t device_id) const;
  AdmissionController& admission_slice(std::size_t slice) const {
    return *admission_[slice];
  }
  /// Flushes every slice's per-device deny histogram (slice order).
  void flush_admission_metrics() const;

  /// The stream detector owning a device's suspicion state (same slice
  /// routing as admission). Inert when options().detector.enabled is false.
  StreamDetector& detector_slice(std::size_t slice) const {
    return *detectors_[slice];
  }
  /// The device's current escalation-ladder level (0 = unsuspected).
  std::uint32_t suspicion_level(std::uint64_t device_id) const;

  /// Drains the re-enrollment queue (arrival order, deduplicated). A
  /// drained device re-queues only after fail_threshold *new* consecutive
  /// rejects. Empty when the loop is disabled.
  std::vector<std::uint64_t> take_reenroll_queue() const;
  /// Devices currently queued (not yet taken).
  std::size_t reenroll_backlog() const;

 private:
  /// Target of the legacy Registry* constructor's delegation: adopts the
  /// owned single-epoch head after the main constructor ran.
  AuthService(std::unique_ptr<registry::EpochRegistry> owned,
              AuthServiceOptions options);

  /// verify() against an explicitly pinned snapshot — the batch hot path.
  AuthVerdict verify_pinned(const registry::RegistrySnapshot& snapshot,
                            const AuthRequest& request) const;
  /// verify_proof() against an explicitly pinned snapshot.
  AuthVerdict verify_proof_pinned(const registry::RegistrySnapshot& snapshot,
                                  const ProofRequest& request) const;
  /// The resolve-degrade-count step both protocols share: resolves the
  /// device, answers kUnknownDevice / kCorruptRecord itself (reporting
  /// `degraded_bits`), hands an enrolled lookup to `judge`, and counts the
  /// verdict once under the service.* family.
  template <typename Judge>
  AuthVerdict verify_resolved(const registry::RegistrySnapshot& snapshot,
                              std::uint64_t device_id, std::size_t degraded_bits,
                              const Judge& judge) const;
  /// The pin-and-transform step both batch calls share: one snapshot pin,
  /// then verify_one(snapshot, i) for every i over the parallel pool.
  template <typename VerifyOne>
  std::vector<AuthVerdict> verify_each(std::size_t count, const char* span_name,
                                       const VerifyOne& verify_one) const;
  /// The lookup-and-cache step behind verify_resolved.
  EnrollmentCache::Entry resolve_lookup(const registry::RegistrySnapshot& snapshot,
                                        std::uint64_t device_id) const;
  /// Serial post-pass: walks a batch's verdicts in arrival order and feeds
  /// the re-enrollment streak tracker. Never changes a verdict.
  void track_reenrollment(const std::vector<AuthRequest>& requests,
                          const std::vector<AuthVerdict>& verdicts) const;

  const registry::EpochRegistry* epochs_;
  /// Engaged by the legacy Registry* constructor; epochs_ points into it.
  std::unique_ptr<registry::EpochRegistry> owned_epochs_;
  AuthServiceOptions options_;
  mutable EnrollmentCache cache_;
  mutable EnrollmentCache unknown_cache_;
  /// One controller per admission slice, device-id-hash routed.
  mutable std::vector<std::unique_ptr<AdmissionController>> admission_;
  /// One stream detector per admission slice (detector.h): the admission
  /// pre-pass reads penalties from it, a serial post-pass feeds it the
  /// batch's (challenge, guess-weight, verdict-distance) observations in
  /// arrival order. Like re-enrollment tracking it never alters a verdict.
  mutable std::vector<std::unique_ptr<StreamDetector>> detectors_;

  /// Re-enrollment streak tracker + queue (serial post-pass state; the
  /// mutex covers concurrent verify_batch callers, e.g. server shards).
  struct ReenrollState {
    std::mutex mutex;
    std::list<std::pair<std::uint64_t, std::size_t>> lru;  ///< front = MRU
    std::unordered_map<std::uint64_t,
                       std::list<std::pair<std::uint64_t, std::size_t>>::iterator>
        streaks;
    std::vector<std::uint64_t> queue;          ///< arrival order
    std::unordered_set<std::uint64_t> queued;  ///< dedup for queue
  };
  mutable ReenrollState reenroll_;
  obs::Counter* reenroll_queued_ = nullptr;
  obs::Counter* reenroll_overflow_ = nullptr;
  obs::Counter* reenroll_taken_ = nullptr;
};

/// Produces a fresh enrollment for a device queued for re-enrollment —
/// operationally, re-measuring the physical chip at its current operating
/// point and re-running enrollment. nullopt when the device cannot be
/// re-measured (not owned here, offline); it simply stays un-refreshed.
using ReenrollOracle =
    std::function<std::optional<puf::ConfigurableEnrollment>(std::uint64_t)>;

/// Closes the re-enrollment loop: drains the service's queue through the
/// oracle, packs the fresh enrollments into one delta segment and publishes
/// it on `epochs` (one epoch bump). Returns the number of devices
/// re-enrolled; 0 publishes nothing. Counted under service.reenroll_applied.
std::size_t apply_reenrollments(const AuthService& service,
                                registry::EpochRegistry& epochs,
                                const ReenrollOracle& oracle);

/// Deterministic request-mix generator for benches, tests and the CLI's
/// auth-batch command: a fraction of forged, unknown-device and degraded
/// requests on top of legitimate responses with per-bit flip noise.
struct WorkloadSpec {
  std::size_t requests = 1024;
  double flip_rate = 0.01;     ///< per-bit noise on legitimate responses
  double forge_rate = 0.05;    ///< fraction answered with random bits
  double unknown_rate = 0.02;  ///< fraction claiming an unenrolled id
  std::uint64_t seed = 0x570ca57;
  /// Optional prover-side fault source (non-owning; nullptr = fault-free).
  /// Faulty reads corrupt response bits; a dropped read makes the prover's
  /// hardened readout give up (MeasurementFault, kRetryExhausted) and the
  /// request degrade to an empty response — which the service then answers
  /// with kMalformedRequest instead of failing the batch.
  sil::FaultInjector* injector = nullptr;
};

/// Generates spec.requests requests against the registry's population.
/// Serial and deterministic: same (registry, options, spec) — same requests.
std::vector<AuthRequest> synthesize_workload(const registry::Registry& registry,
                                             const AuthServiceOptions& options,
                                             const WorkloadSpec& spec);

/// One planned protocol-v2 attempt: the ids the client will send and the
/// key the prover recovered (or failed to recover — a keyless prover sends
/// an all-zeros tag, which an HMAC output can never equal). The tag itself
/// cannot be precomputed: it binds the server's nonce, which only exists
/// once the exchange starts.
struct ProofIntent {
  std::uint64_t request_id = 0;
  std::uint64_t device_id = 0;
  bool has_key = false;
  crypto::Sha256Digest key{};
};

/// The v2 counterpart of synthesize_workload: unknown-device, forged
/// (keyless) and legitimate attempts in spec's proportions. Legitimate
/// provers re-derive their key by running Rep over the enrollment response
/// with per-bit flips at spec.flip_rate — within the code's radius the
/// enrolled key comes back, beyond it the prover is keyless and fails
/// closed. Request ids are sequential from 1. Serial and deterministic;
/// consumes its own RNG stream, so v1 workloads are untouched.
std::vector<ProofIntent> synthesize_proof_workload(const registry::Registry& registry,
                                                   const WorkloadSpec& spec);

/// FNV-1a digest over the verdict sequence (order-sensitive); the CLI prints it
/// so thread-budget sweeps can assert bit-identical batch results cheaply.
std::uint64_t verdict_digest(const std::vector<AuthVerdict>& verdicts);

}  // namespace ropuf::service

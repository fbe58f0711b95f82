// Cryptographic session authentication for protocol v2 (docs/protocol_v2.md).
//
// v1 verdicts are raw Hamming comparisons, which makes the verifier a
// distance oracle (attack/harvest.h mines it bit-for-bit). v2 removes the
// response bits from the wire entirely:
//
//   enrollment   provision_auth() runs the code-offset fuzzy extractor's
//                Gen on the enrollment response: per-device public helper
//                blocks + a derived key. The registry record carries the
//                helper and SHA-256(key) (a key check value) — never the
//                key itself.
//   server       derive_enrollment_key() re-runs Rep on the *clean*
//                enrollment response (zero errors, exact recovery) and
//                cross-checks the KCV, so corrupt helper material surfaces
//                as a detectable failure instead of a garbage key.
//   prover       recover_key() runs Rep on the noisy re-measurement; within
//                the code's correction radius the same key comes back, and
//                the same KCV cross-check turns a miscorrected block into a
//                keyless prover that fails closed.
//   exchange     the server sends a fresh nonce; the prover returns
//                HMAC(key, nonce || request_id || device_id); the server
//                compares in constant time. Replays fail because the
//                server-side session is consumed on first use; harvested
//                CRPs are useless because no response bits ever travel.
//
// The code table maps a device's enrolled pair count to the strongest
// standard code whose single block fits: BCH(15,7) down to repetition(3).
// Codes are constructed once per process and shared (construction builds
// the syndrome table; instances are immutable and thread-safe).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>

#include "common/bitvec.h"
#include "common/rng.h"
#include "crypto/cyclic_code.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"
#include "puf/schemes.h"

namespace ropuf::auth {

/// 16-byte server nonce carried by the kAuthChallenge frame.
using Nonce = std::array<std::uint8_t, 16>;
/// 32-byte HMAC-SHA256 tag carried by the kAuthProof frame.
using Tag = std::array<std::uint8_t, 32>;

/// Registered auth code identifiers (record field `auth_code_id`).
/// 0 means unprovisioned; unknown ids are a record defect.
inline constexpr std::uint8_t kCodeNone = 0;
inline constexpr std::uint8_t kCodeRepetition3 = 1;
inline constexpr std::uint8_t kCodeRepetition5 = 2;
inline constexpr std::uint8_t kCodeHamming74 = 3;
inline constexpr std::uint8_t kCodeBch157 = 4;

/// The shared instance for a code id; nullptr for kCodeNone or an unknown
/// id (callers map that to their corrupt-record verdict).
const crypto::CyclicCode* code_for_id(std::uint8_t code_id);

/// Strongest code whose block fits `pair_count` response bits: BCH(15,7)
/// at >= 15 pairs, Hamming(7,4) at >= 7, repetition(5)/(3) below, kCodeNone
/// when even 3 bits are unavailable.
std::uint8_t code_id_for_pairs(std::size_t pair_count);

/// Runs fuzzy-extractor Gen over the enrollment response and stores the
/// helper blocks, code id and key check value on the enrollment. Devices
/// too small for any code (< 3 pairs) are left unprovisioned. `rng` drives
/// the per-block random messages; minting forks one independent stream per
/// device so existing fleet streams stay bit-identical.
void provision_auth(puf::ConfigurableEnrollment& enrollment, Rng& rng);

/// Server-side key derivation: Rep over the clean enrollment response plus
/// the stored helper, cross-checked against the key check value. nullopt
/// when the record is unprovisioned, the code id is unknown, the helper
/// geometry is inconsistent, or the KCV does not match — all of which a
/// verifier reports as a corrupt record.
std::optional<crypto::Sha256Digest> derive_enrollment_key(
    const puf::ConfigurableEnrollment& enrollment);

/// Prover-side key recovery: Rep over a noisy re-measurement of the
/// enrolled response, cross-checked against the key check value. nullopt
/// when any block decodes outside the code's radius or the recovered key
/// misses the KCV (a block miscorrected to a wrong codeword) — the prover
/// then cannot produce a valid tag and fails closed.
std::optional<crypto::Sha256Digest> recover_key(
    const BitVec& noisy_response, const puf::ConfigurableEnrollment& enrollment);

/// HMAC(key, nonce || request_id || device_id), ids little-endian.
Tag prove(const crypto::HmacSha256Key& key, const Nonce& nonce,
          std::uint64_t request_id, std::uint64_t device_id);

/// Same, for a raw key: builds the key object on every call. Callers that
/// prove or verify under one key many times keep an HmacSha256Key.
Tag prove(const crypto::Sha256Digest& key, const Nonce& nonce,
          std::uint64_t request_id, std::uint64_t device_id);

/// Constant-time tag comparison (no early-out on the first differing byte).
bool verify_tag(const crypto::HmacSha256Key& key, const Nonce& nonce,
                std::uint64_t request_id, std::uint64_t device_id,
                const Tag& tag);

/// Same, for a raw key.
bool verify_tag(const crypto::Sha256Digest& key, const Nonce& nonce,
                std::uint64_t request_id, std::uint64_t device_id,
                const Tag& tag);

/// Branch-free byte-string equality.
bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t size);

/// Deterministic nonce source: nonce = first 16 bytes of
/// HMAC(SHA-256(seed), counter || device_id || request_id) over an atomic
/// counter, where the seed and all three fields are 8 little-endian bytes.
/// Every challenge is fresh (replays fail) while a fixed seed makes test
/// transcripts reproducible. Verdicts never depend on nonce *values* — a
/// recovered key MACs any nonce correctly — which is what keeps online
/// digests parity-comparable across shard placements and thread budgets.
class NonceFactory {
 public:
  explicit NonceFactory(std::uint64_t seed);

  /// Thread-safe; each call consumes one counter value.
  Nonce next(std::uint64_t device_id, std::uint64_t request_id);

 private:
  crypto::HmacSha256Key seed_key_;
  std::atomic<std::uint64_t> counter_{0};
};

}  // namespace ropuf::auth

// HMAC-SHA256 (RFC 2104 / FIPS 198-1) over the self-contained SHA-256.
//
// The protocol-v2 authentication primitive: a prover that recovered its
// fuzzy-extractor key proves possession by MACing a server nonce, so the
// wire never carries raw response bits and a replayed transcript fails
// (docs/protocol_v2.md). Keys longer than the 64-byte SHA-256 block are
// hashed first, exactly as the RFC prescribes; tests pin the RFC 4231
// vectors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "crypto/sha256.h"

namespace ropuf::crypto {

/// HMAC-SHA256 under one fixed key. The constructor folds the key's ipad
/// and opad blocks into two SHA-256 midstates, so mac() only finishes
/// them: one inner and one outer compression for messages of up to 55
/// bytes, and no heap allocation at any length. Immutable after
/// construction, so one object may serve concurrent callers.
class HmacSha256Key {
 public:
  /// Any key length. `compress` defaults to the process's choice; tests
  /// pass each implementation to pin them all to the same bytes.
  HmacSha256Key(const std::uint8_t* key, std::size_t key_size,
                Sha256Compress compress = sha256_compress());

  /// HMAC-SHA256 of `data` under this key.
  Sha256Digest mac(const std::uint8_t* data, std::size_t size) const;

 private:
  Sha256State inner_;  ///< state after the block K' ^ ipad
  Sha256State outer_;  ///< state after the block K' ^ opad
  Sha256Compress compress_;
};

/// HMAC-SHA256 of `data` under `key` (any key length): builds the key
/// object and MACs once. Callers that reuse a key keep an HmacSha256Key.
Sha256Digest hmac_sha256(const std::uint8_t* key, std::size_t key_size,
                         const std::uint8_t* data, std::size_t data_size);

/// Convenience overloads.
Sha256Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                         const std::vector<std::uint8_t>& data);
Sha256Digest hmac_sha256(const std::string& key, const std::string& data);

}  // namespace ropuf::crypto

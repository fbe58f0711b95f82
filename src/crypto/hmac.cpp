#include "crypto/hmac.h"

#include <array>
#include <cstring>

namespace ropuf::crypto {
namespace {

/// SHA-256 processes 64-byte blocks; HMAC pads/ipads at that width.
constexpr std::size_t kBlockBytes = 64;

}  // namespace

HmacSha256Key::HmacSha256Key(const std::uint8_t* key, std::size_t key_size,
                             Sha256Compress compress)
    : inner_(kSha256Initial), outer_(kSha256Initial), compress_(compress) {
  // K' = key hashed down when longer than a block, zero-padded to the block.
  std::array<std::uint8_t, kBlockBytes> padded{};
  if (key_size > kBlockBytes) {
    const Sha256Digest reduced = sha256_finish(kSha256Initial, 0, key, key_size, compress);
    std::memcpy(padded.data(), reduced.data(), reduced.size());
  } else if (key_size > 0) {
    std::memcpy(padded.data(), key, key_size);
  }

  std::array<std::uint8_t, kBlockBytes> block{};
  for (std::size_t i = 0; i < kBlockBytes; ++i) {
    block[i] = static_cast<std::uint8_t>(padded[i] ^ 0x36u);
  }
  compress_(inner_, block.data(), 1);
  for (std::size_t i = 0; i < kBlockBytes; ++i) {
    block[i] = static_cast<std::uint8_t>(padded[i] ^ 0x5cu);
  }
  compress_(outer_, block.data(), 1);
}

Sha256Digest HmacSha256Key::mac(const std::uint8_t* data, std::size_t size) const {
  // inner = H((K' ^ ipad) || data); outer = H((K' ^ opad) || inner)
  const Sha256Digest inner = sha256_finish(inner_, kBlockBytes, data, size, compress_);
  return sha256_finish(outer_, kBlockBytes, inner.data(), inner.size(), compress_);
}

Sha256Digest hmac_sha256(const std::uint8_t* key, std::size_t key_size,
                         const std::uint8_t* data, std::size_t data_size) {
  return HmacSha256Key(key, key_size).mac(data, data_size);
}

Sha256Digest hmac_sha256(const std::vector<std::uint8_t>& key,
                         const std::vector<std::uint8_t>& data) {
  return hmac_sha256(key.data(), key.size(), data.data(), data.size());
}

Sha256Digest hmac_sha256(const std::string& key, const std::string& data) {
  return hmac_sha256(reinterpret_cast<const std::uint8_t*>(key.data()),
                     key.size(),
                     reinterpret_cast<const std::uint8_t*>(data.data()),
                     data.size());
}

}  // namespace ropuf::crypto

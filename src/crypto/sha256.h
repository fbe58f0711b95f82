// SHA-256 (FIPS 180-4), self-contained.
//
// Used by the fuzzy extractor's key-derivation step. PUF responses are
// noisy and mildly biased, so the secret passed to the application is the
// hash of the error-corrected witness, never the raw response.
//
// The block compression has two implementations with identical output: the
// portable FIPS 180-4 rounds, and the x86 SHA extensions (SHA-NI) where the
// CPU has them. The process picks one the first time it hashes and keeps it;
// every hash, HMAC and key derivation runs through that choice.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace ropuf::crypto {

using Sha256Digest = std::array<std::uint8_t, 32>;

/// The eight 32-bit chaining words between blocks.
using Sha256State = std::array<std::uint32_t, 8>;

/// FIPS 180-4 initial hash value H(0).
inline constexpr Sha256State kSha256Initial = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                               0xa54ff53a, 0x510e527f, 0x9b05688c,
                                               0x1f83d9ab, 0x5be0cd19};

/// Folds `block_count` consecutive 64-byte blocks into `state`.
using Sha256Compress = void (*)(Sha256State& state, const std::uint8_t* blocks,
                                std::size_t block_count);

/// The portable compression: FIPS 180-4 rounds in plain C++. Runs anywhere;
/// the fallback where SHA-NI is missing.
void sha256_compress_scalar(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t block_count);

/// The SHA-NI compression, or nullptr when the build is not x86-64 or the
/// CPU lacks the SHA and SSE4.1 extensions.
Sha256Compress sha256_compress_shani();

/// The compression this process uses: SHA-NI when available, else scalar.
/// Chosen on first call and fixed for the life of the process.
Sha256Compress sha256_compress();

/// "sha-ni" or "scalar": which compression sha256_compress() returns.
const char* sha256_compression_name();

/// Completes a hash whose first `prefix_bytes` bytes (a multiple of 64) are
/// already folded into `state`: compresses `data`, appends the FIPS 180-4
/// padding for a message of prefix_bytes + size bytes, and returns the
/// digest. With kSha256Initial and prefix 0 this is the whole hash.
Sha256Digest sha256_finish(Sha256State state, std::uint64_t prefix_bytes,
                           const std::uint8_t* data, std::size_t size,
                           Sha256Compress compress);

/// One-shot SHA-256 of a byte buffer.
Sha256Digest sha256(const std::uint8_t* data, std::size_t size);

/// Convenience overloads.
Sha256Digest sha256(const std::vector<std::uint8_t>& data);
Sha256Digest sha256(const std::string& data);

/// Lowercase hex rendering of a digest (tests, logs).
std::string to_hex(const Sha256Digest& digest);

}  // namespace ropuf::crypto

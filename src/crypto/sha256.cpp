#include "crypto/sha256.h"

#include <bit>
#include <cstring>

// The SHA-NI compression is compiled only for x86-64; other targets run the
// scalar rounds.
#if defined(__x86_64__) && defined(__GNUC__)
#define ROPUF_SHA256_SHANI 1
#include <immintrin.h>
#endif

namespace ropuf::crypto {
namespace {

constexpr std::uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int k) { return (x >> k) | (x << (32 - k)); }

/// FIPS 180-4 lays words and the bit length out big-endian. A byte swap and
/// one store each: written a byte at a time, the digest compiled to a
/// shuffle sequence that cost each finish over half a SHA-NI compression,
/// and every HMAC on the v2 path runs two finishes.
void store_big_endian(std::uint8_t* out, std::uint32_t word) {
  if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap32(word);
  std::memcpy(out, &word, sizeof word);
}
void store_big_endian(std::uint8_t* out, std::uint64_t word) {
  if constexpr (std::endian::native == std::endian::little) word = __builtin_bswap64(word);
  std::memcpy(out, &word, sizeof word);
}

void process_block(Sha256State& h, const std::uint8_t* block) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = (std::uint32_t{block[4 * i]} << 24) | (std::uint32_t{block[4 * i + 1]} << 16) |
           (std::uint32_t{block[4 * i + 2]} << 8) | std::uint32_t{block[4 * i + 3]};
  }
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3];
  std::uint32_t e = h[4], f = h[5], g = h[6], hh = h[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = hh + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    hh = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
  h[5] += f;
  h[6] += g;
  h[7] += hh;
}

#ifdef ROPUF_SHA256_SHANI
/// Intel's SHA-extensions sequence. sha256rnds2 keeps the working variables
/// as the register pair ABEF/CDGH and runs two rounds per instruction;
/// sha256msg1/msg2 extend the message schedule four words at a time. Each
/// group of four rounds adds four round constants to four schedule words.
__attribute__((target("sha,sse4.1"))) void compress_shani(Sha256State& state,
                                                           const std::uint8_t* blocks,
                                                           std::size_t block_count) {
  const __m128i byte_swap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[0]));     // DCBA
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(&state[4]));  // HGFE
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                                              // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);                                        // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);                                // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);                                     // CDGH

  for (std::size_t n = 0; n < block_count; ++n, blocks += 64) {
    const __m128i abef = state0;
    const __m128i cdgh = state1;
    __m128i w[4];  // schedule words 4g-16 .. 4g-1, group g-4+k in slot (g+k) % 4
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i m;
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), byte_swap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16] for t = 4g..4g+3.
        m = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        m = _mm_sha256msg2_epu32(m, w[(g + 3) % 4]);
      }
      w[g % 4] = m;
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g)));
      state1 = _mm_sha256rnds2_epu32(state1, state0, wk);
      state0 = _mm_sha256rnds2_epu32(state0, state1, _mm_shuffle_epi32(wk, 0x0E));
    }
    state0 = _mm_add_epi32(state0, abef);
    state1 = _mm_add_epi32(state1, cdgh);
  }

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[0]), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(&state[4]), state1);
}
#endif

}  // namespace

void sha256_compress_scalar(Sha256State& state, const std::uint8_t* blocks,
                            std::size_t block_count) {
  for (std::size_t n = 0; n < block_count; ++n) process_block(state, blocks + 64 * n);
}

Sha256Compress sha256_compress_shani() {
#ifdef ROPUF_SHA256_SHANI
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1");
  }();
  if (supported) return &compress_shani;
#endif
  return nullptr;
}

Sha256Compress sha256_compress() {
  static const Sha256Compress shani = sha256_compress_shani();
  return shani != nullptr ? shani : &sha256_compress_scalar;
}

const char* sha256_compression_name() {
  return sha256_compress() == &sha256_compress_scalar ? "scalar" : "sha-ni";
}

Sha256Digest sha256_finish(Sha256State state, std::uint64_t prefix_bytes,
                           const std::uint8_t* data, std::size_t size,
                           Sha256Compress compress) {
  const std::size_t whole = size - size % 64;
  if (whole > 0) compress(state, data, whole / 64);

  // Final padding: 0x80, zeros, 64-bit big-endian bit length.
  std::uint8_t tail[128] = {};
  const std::size_t rem = size - whole;
  if (rem > 0) std::memcpy(tail, data + whole, rem);
  tail[rem] = 0x80;
  const std::size_t tail_len = (rem < 56) ? 64 : 128;
  store_big_endian(tail + tail_len - 8, std::uint64_t{(prefix_bytes + size) * 8});
  compress(state, tail, tail_len / 64);

  Sha256Digest digest;
  for (std::size_t i = 0; i < 8; ++i) store_big_endian(digest.data() + 4 * i, state[i]);
  return digest;
}

Sha256Digest sha256(const std::uint8_t* data, std::size_t size) {
  return sha256_finish(kSha256Initial, 0, data, size, sha256_compress());
}

Sha256Digest sha256(const std::vector<std::uint8_t>& data) {
  return sha256(data.data(), data.size());
}

Sha256Digest sha256(const std::string& data) {
  return sha256(reinterpret_cast<const std::uint8_t*>(data.data()), data.size());
}

std::string to_hex(const Sha256Digest& digest) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  out.reserve(64);
  for (const std::uint8_t byte : digest) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace ropuf::crypto

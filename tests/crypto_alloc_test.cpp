// Heap allocations on the protocol-v2 crypto path.
//
// A v2 proof costs the server one nonce and one tag check; both run per
// request on the reactor, so neither may touch the allocator. This binary
// replaces the global operator new with a counting one and asserts that
// the HMAC, nonce, prove and verify calls make no allocation at all.
#include <gtest/gtest.h>

#include <vector>

#include "auth/auth.h"
#include "counting_alloc.h"
#include "crypto/hmac.h"

namespace ropuf {
namespace {

constexpr std::size_t kCalls = 1000;

using counting_alloc::allocations_over;

/// Where the loops leave their results, so no call can be dropped.
volatile std::uint8_t g_sink = 0;
void keep(std::uint8_t byte) { g_sink = byte; }

crypto::Sha256Digest sample_key() {
  crypto::Sha256Digest key{};
  for (std::size_t i = 0; i < key.size(); ++i) key[i] = static_cast<std::uint8_t>(i * 7);
  return key;
}

TEST(CryptoAllocations, CounterSeesAVectorAllocation) {
  // Without this the zero counts below could come from a counter that
  // never runs.
  std::vector<std::uint8_t> heap;
  EXPECT_EQ(allocations_over(1, [&](std::size_t) { heap.resize(64); }), 1u);
  EXPECT_EQ(heap.size(), 64u);
}

TEST(CryptoAllocations, HmacPointerOverloadAllocatesNothing) {
  const crypto::Sha256Digest key = sample_key();
  const std::vector<std::uint8_t> long_key(131, 0xaa);
  std::vector<std::uint8_t> message(200, 0x5c);
  EXPECT_EQ(allocations_over(kCalls,
                             [&](std::size_t i) {
                               const std::size_t size = i % message.size();
                               keep(crypto::hmac_sha256(key.data(), key.size(),
                                                           message.data(), size)[0]);
                               keep(crypto::hmac_sha256(long_key.data(), long_key.size(),
                                                           message.data(), size)[0]);
                             }),
            0u);
}

TEST(CryptoAllocations, KeyObjectMacAllocatesNothing) {
  const crypto::Sha256Digest key = sample_key();
  const crypto::HmacSha256Key key_object(key.data(), key.size());
  std::vector<std::uint8_t> message(200, 0x36);
  EXPECT_EQ(allocations_over(kCalls,
                             [&](std::size_t i) {
                               keep(key_object.mac(message.data(), i % message.size())[0]);
                             }),
            0u);
}

TEST(CryptoAllocations, NonceProveAndVerifyAllocateNothing) {
  const crypto::Sha256Digest key = sample_key();
  const crypto::HmacSha256Key key_object(key.data(), key.size());
  auth::NonceFactory nonces(0x5eed);
  const auth::Nonce nonce = nonces.next(7, 41);
  const auth::Tag tag = auth::prove(key, nonce, 41, 7);

  EXPECT_EQ(allocations_over(kCalls,
                             [&](std::size_t i) { keep(nonces.next(i, i + 1)[0]); }),
            0u);
  EXPECT_EQ(allocations_over(kCalls,
                             [&](std::size_t i) {
                               keep(auth::prove(key, nonce, i, 7)[0]);
                               keep(auth::prove(key_object, nonce, i, 7)[0]);
                             }),
            0u);
  std::size_t accepted = 0;
  EXPECT_EQ(allocations_over(kCalls,
                             [&](std::size_t i) {
                               accepted += auth::verify_tag(key, nonce, 41 + i % 2, 7, tag);
                               accepted +=
                                   auth::verify_tag(key_object, nonce, 41 + i % 2, 7, tag);
                             }),
            0u);
  EXPECT_EQ(accepted, kCalls);  // the even calls carry the right request id
}

}  // namespace
}  // namespace ropuf

#include "crypto/sha256.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "crypto/hmac.h"

namespace ropuf::crypto {
namespace {

TEST(Sha256, EmptyInputVector) {
  EXPECT_EQ(to_hex(sha256(std::string())),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, AbcVector) {
  EXPECT_EQ(to_hex(sha256(std::string("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockVector) {
  // FIPS 180-4 test vector: 448-bit message spanning the padding boundary.
  EXPECT_EQ(to_hex(sha256(std::string(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, QuickBrownFox) {
  EXPECT_EQ(to_hex(sha256(std::string("The quick brown fox jumps over the lazy dog"))),
            "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592");
}

TEST(Sha256, MillionAs) {
  // FIPS 180-4 long-message vector.
  EXPECT_EQ(to_hex(sha256(std::string(1000000, 'a'))),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, PaddingBoundaryLengths) {
  // 55/56/63/64/65 bytes cross every padding branch; results must be stable
  // and distinct.
  std::vector<std::string> hashes;
  for (const std::size_t len : {55u, 56u, 63u, 64u, 65u}) {
    hashes.push_back(to_hex(sha256(std::string(len, 'x'))));
  }
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    for (std::size_t j = i + 1; j < hashes.size(); ++j) EXPECT_NE(hashes[i], hashes[j]);
  }
}

TEST(Sha256, Nist896BitVector) {
  // FIPS 180-4 four-block vector: the 896-bit message, the longest of the
  // standard byte-oriented test vectors.
  EXPECT_EQ(to_hex(sha256(std::string(
                "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
                "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"))),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256, SingleBitChangeAvalanches) {
  std::vector<std::uint8_t> a(32, 0);
  std::vector<std::uint8_t> b = a;
  b[7] ^= 0x01;
  const auto da = sha256(a);
  const auto db = sha256(b);
  int differing_bits = 0;
  for (std::size_t i = 0; i < da.size(); ++i) {
    differing_bits += __builtin_popcount(static_cast<unsigned>(da[i] ^ db[i]));
  }
  EXPECT_GT(differing_bits, 90);   // ~128 expected of 256
  EXPECT_LT(differing_bits, 166);
}

// ------------------------------------------------------------- HMAC-SHA256
// RFC 4231 test cases 1-7. The protocol-v2 proof tag and nonce factory
// both stand on hmac_sha256, so the full vector set is pinned here.

std::string hmac_hex(const std::string& key, const std::string& data) {
  return to_hex(hmac_sha256(key, data));
}

TEST(HmacSha256, Rfc4231Case1) {
  EXPECT_EQ(hmac_hex(std::string(20, '\x0b'), "Hi There"),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacSha256, Rfc4231Case2) {
  // A key shorter than the digest size.
  EXPECT_EQ(hmac_hex("Jefe", "what do ya want for nothing?"),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacSha256, Rfc4231Case3) {
  EXPECT_EQ(hmac_hex(std::string(20, '\xaa'), std::string(50, '\xdd')),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacSha256, Rfc4231Case4) {
  std::string key;
  for (int b = 0x01; b <= 0x19; ++b) key.push_back(static_cast<char>(b));
  EXPECT_EQ(hmac_hex(key, std::string(50, '\xcd')),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HmacSha256, Rfc4231Case5Truncated) {
  // The RFC publishes only the first 128 bits of this case's output.
  EXPECT_EQ(hmac_hex(std::string(20, '\x0c'), "Test With Truncation").substr(0, 32),
            "a3b6167473100ee06e0c796c2955552b");
}

TEST(HmacSha256, Rfc4231Case6LargerThanBlockSizeKey) {
  // A 131-byte key exceeds the 64-byte SHA-256 block, so the RFC requires
  // hashing the key first — the branch this case exists to pin.
  EXPECT_EQ(hmac_hex(std::string(131, '\xaa'),
                     "Test Using Larger Than Block-Size Key - Hash Key First"),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, Rfc4231Case7LargerThanBlockSizeKeyAndData) {
  EXPECT_EQ(hmac_hex(std::string(131, '\xaa'),
                     "This is a test using a larger than block-size key and a "
                     "larger than block-size data. The key needs to be hashed "
                     "before being used by the HMAC algorithm."),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2");
}

TEST(HmacSha256, PointerAndContainerOverloadsAgree) {
  const std::vector<std::uint8_t> key = {0x0b, 0x0b, 0x0b};
  const std::vector<std::uint8_t> data = {'H', 'i'};
  const Sha256Digest via_vectors = hmac_sha256(key, data);
  const Sha256Digest via_pointers =
      hmac_sha256(key.data(), key.size(), data.data(), data.size());
  EXPECT_EQ(to_hex(via_vectors), to_hex(via_pointers));
}

TEST(HmacSha256, EmptyKeyAndMessageAreDefined) {
  // HMAC with an empty key / empty message is well-defined; pin the value
  // so a refactor cannot silently change it.
  EXPECT_EQ(hmac_hex("", ""),
            "b613679a0814d9ec772f95d778c35fc5ff1697c493715653c6c712144292c5ad");
}

// ------------------------------------------------ compression functions
// Each implementation runs the FIPS 180-4 and RFC 4231 vectors directly,
// whichever one the process picked, so a host without SHA-NI still tests
// the scalar rounds and a host with it tests both. Without SHA-NI the
// "shani" cases report as skipped.

const std::uint8_t* bytes(const std::string& s) {
  return reinterpret_cast<const std::uint8_t*>(s.data());
}

class CompressionTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    compress_ = GetParam() == "scalar" ? &sha256_compress_scalar : sha256_compress_shani();
    if (compress_ == nullptr) GTEST_SKIP() << "this CPU or build has no SHA-NI";
  }

  std::string hash_hex(const std::string& data) const {
    return to_hex(sha256_finish(kSha256Initial, 0, bytes(data), data.size(), compress_));
  }

  std::string mac_hex(const std::string& key, const std::string& data) const {
    return to_hex(HmacSha256Key(bytes(key), key.size(), compress_)
                      .mac(bytes(data), data.size()));
  }

  Sha256Compress compress_ = nullptr;
};

TEST_P(CompressionTest, Fips180Vectors) {
  const struct {
    std::string message;
    const char* digest;
  } vectors[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
       "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
       "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& v : vectors) {
    EXPECT_EQ(hash_hex(v.message), v.digest) << v.message.size() << "-byte message";
  }
}

TEST_P(CompressionTest, Rfc4231Vectors) {
  std::string case4_key;
  for (int b = 0x01; b <= 0x19; ++b) case4_key.push_back(static_cast<char>(b));
  const struct {
    int number;
    std::string key;
    std::string data;
    const char* mac;
  } cases[] = {
      {1, std::string(20, '\x0b'), "Hi There",
       "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"},
      {2, "Jefe", "what do ya want for nothing?",
       "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"},
      {3, std::string(20, '\xaa'), std::string(50, '\xdd'),
       "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"},
      {4, case4_key, std::string(50, '\xcd'),
       "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"},
      {6, std::string(131, '\xaa'), "Test Using Larger Than Block-Size Key - Hash Key First",
       "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"},
      {7, std::string(131, '\xaa'),
       "This is a test using a larger than block-size key and a larger than "
       "block-size data. The key needs to be hashed before being used by the "
       "HMAC algorithm.",
       "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(mac_hex(c.key, c.data), c.mac) << "case " << c.number;
  }
  // Case 5: the RFC publishes only the first 128 bits.
  EXPECT_EQ(mac_hex(std::string(20, '\x0c'), "Test With Truncation").substr(0, 32),
            "a3b6167473100ee06e0c796c2955552b");
}

INSTANTIATE_TEST_SUITE_P(Sha256, CompressionTest, ::testing::Values("scalar", "shani"),
                         [](const ::testing::TestParamInfo<std::string>& param) {
                           return param.param;
                         });

TEST(Sha256, ProcessCompressionIsNamed) {
  const std::string name = sha256_compression_name();
  EXPECT_EQ(name, sha256_compress_shani() != nullptr ? "sha-ni" : "scalar");
  EXPECT_EQ(sha256_compress() == &sha256_compress_scalar, name == "scalar");
}

TEST(HmacSha256Property, OneShotKeyObjectAndEveryCompressionAgree) {
  // Key lengths straddle the 32-byte digest and the 64-byte block (past
  // which the key is hashed first); message lengths cross the one-block
  // inner finish at 55 bytes and the block boundaries at 64 and 128.
  const Sha256Compress shani = sha256_compress_shani();
  for (const std::size_t key_size : {0u, 1u, 31u, 32u, 33u, 63u, 64u, 65u, 131u}) {
    std::vector<std::uint8_t> key(key_size);
    for (std::size_t i = 0; i < key_size; ++i) {
      key[i] = static_cast<std::uint8_t>(i * 131 + key_size);
    }
    const HmacSha256Key process(key.data(), key.size());
    const HmacSha256Key scalar(key.data(), key.size(), &sha256_compress_scalar);
    std::vector<std::uint8_t> message;
    for (std::size_t size = 0; size <= 200; ++size) {
      const Sha256Digest expected =
          hmac_sha256(key.data(), key.size(), message.data(), message.size());
      ASSERT_EQ(process.mac(message.data(), message.size()), expected)
          << "key " << key_size << " message " << size;
      ASSERT_EQ(scalar.mac(message.data(), message.size()), expected)
          << "key " << key_size << " message " << size;
      if (shani != nullptr) {
        ASSERT_EQ(HmacSha256Key(key.data(), key.size(), shani)
                      .mac(message.data(), message.size()),
                  expected)
            << "key " << key_size << " message " << size;
      }
      message.push_back(static_cast<std::uint8_t>(size * 29 + 7));
    }
  }
}

}  // namespace
}  // namespace ropuf::crypto

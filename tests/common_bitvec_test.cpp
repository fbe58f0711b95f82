#include "common/bitvec.h"

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/hamming.h"
#include "common/rng.h"

namespace ropuf {
namespace {

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVec, SizedConstructorZeroInitializes) {
  BitVec v(130);  // spans three words
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FALSE(v.get(i));
}

TEST(BitVec, SizesPastTheLastWholeWordAreRefusedBeforeAllocating) {
  // Past SIZE_MAX - 63 the word count (n + 63) / 64 wraps to 0. The guard
  // throws ropuf::Error before the allocator is asked for anything (which
  // would throw std::bad_alloc instead), so no one-word block ever backs
  // such a vector.
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  for (const std::size_t n : {kMax - 62, kMax - 2, kMax}) {
    EXPECT_THROW(BitVec{n}, Error) << n;
  }
}

TEST(BitVec, SetAndGetRoundTrip) {
  BitVec v(100);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(99, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(99));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.set(63, false);
  EXPECT_FALSE(v.get(63));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, OutOfRangeAccessThrows) {
  BitVec v(8);
  EXPECT_THROW(v.get(8), Error);
  EXPECT_THROW(v.set(8, true), Error);
}

TEST(BitVec, FromStringParsesAndRoundTrips) {
  const std::string s = "1011001110001111";
  const BitVec v = BitVec::from_string(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.to_string(), s);
  EXPECT_EQ(v.popcount(), 10u);
}

TEST(BitVec, FromStringRejectsNonBinary) {
  EXPECT_THROW(BitVec::from_string("10x1"), Error);
}

TEST(BitVec, FromBitsMatchesFromString) {
  const BitVec a = BitVec::from_bits({1, 0, 1, 1, 0});
  const BitVec b = BitVec::from_string("10110");
  EXPECT_EQ(a, b);
}

TEST(BitVec, FromBitsRejectsNonBinaryValues) {
  EXPECT_THROW(BitVec::from_bits({0, 2}), Error);
}

TEST(BitVec, PushBackGrowsAcrossWordBoundary) {
  BitVec v;
  for (int i = 0; i < 200; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 200u);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(v.get(static_cast<std::size_t>(i)), i % 3 == 0) << "bit " << i;
  }
}

TEST(BitVec, AppendConcatenates) {
  BitVec a = BitVec::from_string("101");
  const BitVec b = BitVec::from_string("0110");
  a.append(b);
  EXPECT_EQ(a.to_string(), "1010110");
}

TEST(BitVec, HammingDistanceCountsDifferences) {
  const BitVec a = BitVec::from_string("10110010");
  const BitVec b = BitVec::from_string("10011011");
  EXPECT_EQ(a.hamming_distance(b), 3u);
  EXPECT_EQ(b.hamming_distance(a), 3u);
  EXPECT_EQ(a.hamming_distance(a), 0u);
}

TEST(BitVec, HammingDistanceRequiresEqualSizes) {
  const BitVec a(8), b(9);
  EXPECT_THROW(a.hamming_distance(b), Error);
}

TEST(BitVec, HammingDistanceMatchesNaiveOnRandomVectors) {
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t n = 1 + rng.uniform_below(300);
    BitVec a(n), b(n);
    std::size_t naive = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const bool ba = rng.flip();
      const bool bb = rng.flip();
      a.set(i, ba);
      b.set(i, bb);
      if (ba != bb) ++naive;
    }
    EXPECT_EQ(a.hamming_distance(b), naive);
  }
}

TEST(BitVec, BlockedHammingKernelMatchesScalarAtEveryBlockShape) {
  // The shared blocked kernel (common/hamming.h) must be bit-identical to
  // a one-word-at-a-time scalar loop at word counts on both sides of its
  // 4-word block boundary — including the empty and tail-only shapes.
  Rng rng(0xb10c);
  for (const std::size_t words : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 31u}) {
    std::vector<std::uint64_t> a(words), b(words);
    for (std::size_t w = 0; w < words; ++w) {
      a[w] = rng.next_u64();
      b[w] = rng.next_u64();
    }
    std::uint64_t scalar_hd = 0;
    std::uint64_t scalar_pop = 0;
    for (std::size_t w = 0; w < words; ++w) {
      scalar_hd += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
      scalar_pop += static_cast<std::uint64_t>(std::popcount(a[w]));
    }
    EXPECT_EQ(hamming_distance_words(a.data(), b.data(), words), scalar_hd)
        << "words=" << words;
    EXPECT_EQ(popcount_words(a.data(), words), scalar_pop) << "words=" << words;
  }
}

TEST(BitVec, XorMatchesHammingDistance) {
  Rng rng(7);
  BitVec a(150), b(150);
  for (std::size_t i = 0; i < 150; ++i) {
    a.set(i, rng.flip());
    b.set(i, rng.flip());
  }
  EXPECT_EQ((a ^ b).popcount(), a.hamming_distance(b));
}

TEST(BitVec, EqualityComparesContentAndSize) {
  const BitVec a = BitVec::from_string("1010");
  const BitVec b = BitVec::from_string("1010");
  const BitVec c = BitVec::from_string("1011");
  const BitVec d = BitVec::from_string("10100");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

TEST(BitVec, OrderingIsUsableAsMapKey) {
  std::map<BitVec, int> m;
  m[BitVec::from_string("101")] = 1;
  m[BitVec::from_string("011")] = 2;
  m[BitVec::from_string("101")] = 3;  // overwrite, not new key
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m[BitVec::from_string("101")], 3);
}

TEST(BitVec, ToBitsRoundTrips) {
  const std::vector<int> bits{1, 1, 0, 1, 0, 0, 1};
  EXPECT_EQ(BitVec::from_bits(bits).to_bits(), bits);
}

// ------------------------------------------ inline word and heap storage
//
// Up to 64 bits live in the object, more on the heap. Every operation must
// read the same on both sides of that boundary.

/// Sizes on both sides of the inline word and of the heap's first growth.
const std::vector<std::size_t> kBoundarySizes = {0, 1, 63, 64, 65, 129};

BitVec random_bits(Rng& rng, std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, rng.flip());
  return v;
}

/// The packed words the way a vector-of-words BitVec held them.
std::vector<std::uint64_t> packed_words(const BitVec& v) {
  std::vector<std::uint64_t> words((v.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (v.get(i)) words[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  return words;
}

TEST(BitVec, FromPackedBytesMatchesBitByBitSets) {
  // 0..200 bits crosses every byte and word boundary of the packing and
  // the inline word.
  Rng rng(0x9ac);
  for (std::size_t bits = 0; bits <= 200; ++bits) {
    const BitVec want = random_bits(rng, bits);
    std::string packed((bits + 7) / 8, '\0');
    for (std::size_t i = 0; i < bits; ++i) {
      if (want.get(i)) packed[i / 8] = static_cast<char>(packed[i / 8] | (1 << (i % 8)));
    }
    EXPECT_EQ(BitVec::from_packed_bytes(packed, bits), want) << "bits " << bits;
  }
}

TEST(BitVec, FromPackedBytesRejectsAWrongLengthOrSetPadding) {
  EXPECT_THROW(BitVec::from_packed_bytes(std::string(2, '\0'), 17), Error);
  EXPECT_THROW(BitVec::from_packed_bytes(std::string(3, '\0'), 16), Error);
  EXPECT_THROW(BitVec::from_packed_bytes("\x01\x02", 9), Error);  // bit 9 set
  EXPECT_EQ(BitVec::from_packed_bytes("\x01\x01", 9), BitVec::from_string("100000001"));
}

TEST(BitVec, EverySizeAcrossTheInlineBoundaryBehavesAlike) {
  Rng rng(0x1b);
  for (const std::size_t n : kBoundarySizes) {
    const BitVec v = random_bits(rng, n);
    EXPECT_EQ(v.size(), n);
    EXPECT_EQ(v.empty(), n == 0);
    // Word accessor: one word per 64 bits, nothing set past size().
    const std::span<const std::uint64_t> words = v.words();
    ASSERT_EQ(words.size(), (n + 63) / 64) << "n=" << n;
    EXPECT_EQ(std::vector<std::uint64_t>(words.begin(), words.end()), packed_words(v));
    std::size_t ones = 0;
    for (std::size_t i = 0; i < n; ++i) ones += v.get(i) ? 1 : 0;
    EXPECT_EQ(v.popcount(), ones) << "n=" << n;
    EXPECT_EQ(BitVec::from_string(v.to_string()), v) << "n=" << n;
    EXPECT_EQ((v ^ v).popcount(), 0u);
    const BitVec w = random_bits(rng, n);
    EXPECT_EQ((v ^ w).popcount(), v.hamming_distance(w)) << "n=" << n;
    EXPECT_EQ((v ^ w) ^ w, v) << "n=" << n;
    if (n > 0) {
      EXPECT_THROW(v.get(n), Error);
    }
  }
}

TEST(BitVec, PushBackAcrossTheInlineBoundaryKeepsEveryBit) {
  Rng rng(0x2b);
  std::vector<bool> want;
  BitVec v;
  for (std::size_t i = 0; i < 300; ++i) {
    want.push_back(rng.flip());
    v.push_back(want.back());
    ASSERT_EQ(v.size(), want.size());
    if (i == 63 || i == 64 || i == 128 || i == 256) {
      // Right after each growth step every earlier bit is still there.
      for (std::size_t k = 0; k <= i; ++k) ASSERT_EQ(v.get(k), want[k]) << "at " << i;
      EXPECT_EQ(v, BitVec::from_string(v.to_string()));
    }
  }
  for (std::size_t k = 0; k < want.size(); ++k) EXPECT_EQ(v.get(k), want[k]) << "bit " << k;
}

TEST(BitVec, CopyAndMoveKeepContentOnBothSidesOfTheBoundary) {
  Rng rng(0x3b);
  for (const std::size_t n : kBoundarySizes) {
    const BitVec original = random_bits(rng, n);
    BitVec copy(original);
    EXPECT_EQ(copy, original);
    if (n > 0) {
      copy.set(0, !copy.get(0));  // a deep copy: the original is untouched
      EXPECT_NE(copy, original);
    }
    BitVec moved(std::move(copy));
    EXPECT_EQ(moved.size(), n);
    EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move): pinned state
    for (const std::size_t m : kBoundarySizes) {
      BitVec target = random_bits(rng, m);
      target = original;  // copy-assign across sizes, either direction
      EXPECT_EQ(target, original) << n << " <- " << m;
      BitVec source = original;
      BitVec other = random_bits(rng, m);
      other = std::move(source);  // move-assign across sizes
      EXPECT_EQ(other, original) << n << " <- " << m;
      EXPECT_TRUE(source.empty());  // NOLINT(bugprone-use-after-move)
    }
    BitVec self = original;
    const BitVec& alias = self;
    self = alias;
    EXPECT_EQ(self, original);
  }
}

TEST(BitVec, CopyAssignIntoAnEqualHeapBlockLeavesNoStaleBits) {
  // 129 and 256 bits both take a 4-word heap block, so the assignment
  // reuses the target's block; the bits it does not overwrite read zero.
  BitVec target = BitVec::from_string(std::string(256, '1'));
  const BitVec source = BitVec::from_string(std::string(129, '1'));
  target = source;
  EXPECT_EQ(target, source);
  EXPECT_EQ(target.words().back(), 1u);
  for (std::size_t i = 129; i < 256; ++i) target.push_back(false);
  EXPECT_EQ(target.popcount(), 129u);
}

TEST(BitVec, OrderIsSizeThenWordsLeastSignificantFirst) {
  // The order of the vector-of-words representation: size first, then the
  // packed words compared lexicographically as unsigned integers.
  Rng rng(0x4b);
  std::vector<BitVec> values;
  for (const std::size_t n : kBoundarySizes) {
    for (int k = 0; k < 6; ++k) values.push_back(random_bits(rng, n));
    values.push_back(BitVec(n));
  }
  values.push_back(BitVec::from_string(std::string(64, '0') + "1"));
  values.push_back(BitVec::from_string("1" + std::string(64, '0')));
  for (const BitVec& a : values) {
    for (const BitVec& b : values) {
      const bool want = a.size() != b.size() ? a.size() < b.size()
                                             : packed_words(a) < packed_words(b);
      EXPECT_EQ(a < b, want) << a.to_string() << " < " << b.to_string();
      EXPECT_EQ(a == b, a.size() == b.size() && packed_words(a) == packed_words(b));
    }
  }
}

}  // namespace
}  // namespace ropuf

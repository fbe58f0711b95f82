#include "common/bitvec.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/error.h"
#include "common/hamming.h"

namespace ropuf {

std::size_t BitVec::capacity_for(std::size_t bits) {
  return bits <= kWordBits ? 1 : std::bit_ceil(words_for(bits));
}

BitVec::BitVec(std::size_t n) : size_(n) {
  if (is_inline()) return;
  // Past SIZE_MAX - 63, words_for(n) wraps to 0 and a one-word block would
  // back the vector: refuse before anything is allocated.
  ROPUF_REQUIRE(n <= std::numeric_limits<std::size_t>::max() - (kWordBits - 1),
                "BitVec of " + std::to_string(n) + " bits is past the largest size");
  heap_ = new std::uint64_t[capacity_for(n)]();
}

BitVec::BitVec(const BitVec& other) : size_(other.size_) {
  if (is_inline()) {
    inline_ = other.inline_;
    return;
  }
  heap_ = new std::uint64_t[capacity_for(size_)]();
  std::copy_n(other.heap_, word_count(), heap_);
}

BitVec::BitVec(BitVec&& other) noexcept : size_(other.size_) {
  if (is_inline()) {
    inline_ = other.inline_;
  } else {
    heap_ = other.heap_;
  }
  other.size_ = 0;
  other.inline_ = 0;
}

BitVec& BitVec::operator=(const BitVec& other) {
  if (this == &other) return *this;
  if (is_inline() || capacity_for(size_) != capacity_for(other.size_)) {
    *this = BitVec(other);
    return *this;
  }
  // Same heap block size: copy into it, and zero the words past the copy
  // (bits past size() stay zero).
  size_ = other.size_;
  std::copy_n(other.heap_, word_count(), heap_);
  std::fill(heap_ + word_count(), heap_ + capacity_for(size_), std::uint64_t{0});
  return *this;
}

BitVec& BitVec::operator=(BitVec&& other) noexcept {
  if (this == &other) return *this;
  if (!is_inline()) delete[] heap_;
  size_ = other.size_;
  if (is_inline()) {
    inline_ = other.inline_;
  } else {
    heap_ = other.heap_;
  }
  other.size_ = 0;
  other.inline_ = 0;
  return *this;
}

BitVec::~BitVec() {
  if (!is_inline()) delete[] heap_;
}

BitVec BitVec::from_string(const std::string& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    ROPUF_REQUIRE(bits[i] == '0' || bits[i] == '1', "BitVec string must be 0/1");
    v.set(i, bits[i] == '1');
  }
  return v;
}

BitVec BitVec::from_bits(const std::vector<int>& bits) {
  BitVec v(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    ROPUF_REQUIRE(bits[i] == 0 || bits[i] == 1, "bit values must be 0/1");
    v.set(i, bits[i] != 0);
  }
  return v;
}

BitVec BitVec::from_packed_bytes(std::string_view bytes, std::size_t bits) {
  const std::size_t tail = bits % 8;
  ROPUF_REQUIRE(bytes.size() == bits / 8 + (tail != 0 ? 1 : 0),
                "packed bytes must hold exactly the bit count");
  ROPUF_REQUIRE(tail == 0 || (static_cast<unsigned char>(bytes.back()) >> tail) == 0,
                "padding bits past the bit count must be zero");
  BitVec v(bits);
  std::uint64_t* words = v.data();
  for (std::size_t at = 0; at < bytes.size(); at += 8) {
    const std::size_t n = std::min<std::size_t>(8, bytes.size() - at);
    std::uint64_t word = 0;
    for (std::size_t b = 0; b < n; ++b) {
      word |= std::uint64_t{static_cast<unsigned char>(bytes[at + b])} << (8 * b);
    }
    words[at / 8] = word;
  }
  return v;
}

bool BitVec::get(std::size_t i) const {
  ROPUF_REQUIRE(i < size_, "BitVec index out of range");
  return (data()[i / kWordBits] >> (i % kWordBits)) & 1u;
}

void BitVec::set(std::size_t i, bool value) {
  ROPUF_REQUIRE(i < size_, "BitVec index out of range");
  const std::uint64_t mask = std::uint64_t{1} << (i % kWordBits);
  if (value) {
    data()[i / kWordBits] |= mask;
  } else {
    data()[i / kWordBits] &= ~mask;
  }
}

void BitVec::push_back(bool value) {
  const std::size_t grown = size_ + 1;
  if (grown > kWordBits && capacity_for(grown) != capacity_for(size_)) {
    // Leaving the inline word, or a full power-of-two heap block: move the
    // words into a zeroed block twice the size.
    auto* words = new std::uint64_t[capacity_for(grown)]();
    std::copy_n(data(), word_count(), words);
    if (!is_inline()) delete[] heap_;
    heap_ = words;
  }
  size_ = grown;
  set(size_ - 1, value);
}

void BitVec::append(const BitVec& other) {
  for (std::size_t i = 0; i < other.size(); ++i) push_back(other.get(i));
}

std::size_t BitVec::popcount() const {
  return static_cast<std::size_t>(popcount_words(data(), word_count()));
}

std::size_t BitVec::hamming_distance(const BitVec& other) const {
  ROPUF_REQUIRE(size_ == other.size_, "Hamming distance requires equal sizes");
  return static_cast<std::size_t>(
      hamming_distance_words(data(), other.data(), word_count()));
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) s[i] = '1';
  }
  return s;
}

BitVec BitVec::operator^(const BitVec& other) const {
  ROPUF_REQUIRE(size_ == other.size_, "XOR requires equal sizes");
  BitVec out(size_);
  std::uint64_t* words = out.data();
  const std::uint64_t* a = data();
  const std::uint64_t* b = other.data();
  for (std::size_t w = 0; w < word_count(); ++w) words[w] = a[w] ^ b[w];
  return out;
}

bool BitVec::operator==(const BitVec& other) const {
  return size_ == other.size_ && std::equal(data(), data() + word_count(), other.data());
}

bool BitVec::operator<(const BitVec& other) const {
  // Equal sizes compare word by word, least significant word first, as
  // unsigned integers.
  if (size_ != other.size_) return size_ < other.size_;
  return std::lexicographical_compare(data(), data() + word_count(), other.data(),
                                      other.data() + other.word_count());
}

std::vector<int> BitVec::to_bits() const {
  std::vector<int> bits(size_);
  for (std::size_t i = 0; i < size_; ++i) bits[i] = get(i) ? 1 : 0;
  return bits;
}


}  // namespace ropuf

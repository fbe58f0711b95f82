// Dynamic bit vector used for PUF responses and configuration vectors.
//
// Responses in this library are short (tens to a few hundred bits) but are
// compared pairwise in large batches (Fig. 3, Tables III/IV need ~4.8M
// Hamming distances), so the representation packs bits into 64-bit words and
// computes Hamming distance with popcount. Up to 64 bits live inline in the
// object itself: a 16-bit request response, a 5-bit RO configuration and
// the enrolled bits of a small board allocate nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace ropuf {

/// Packed vector of bits with word-parallel Hamming distance.
class BitVec {
 public:
  BitVec() = default;

  /// Constructs an all-zero vector of `n` bits.
  explicit BitVec(std::size_t n);

  BitVec(const BitVec& other);
  BitVec(BitVec&& other) noexcept;
  BitVec& operator=(const BitVec& other);
  BitVec& operator=(BitVec&& other) noexcept;
  ~BitVec();

  /// Parses a string of '0'/'1' characters, most significant first.
  static BitVec from_string(const std::string& bits);

  /// Builds from a vector<bool>-style container of bit values.
  static BitVec from_bits(const std::vector<int>& bits);

  /// Builds `bits` bits from `bytes` packed LSB-first (bit i is bit i % 8 of
  /// byte i / 8), a word at a time. `bytes` holds exactly ceil(bits / 8)
  /// bytes, and the padding bits past `bits` in the last one are zero.
  static BitVec from_packed_bytes(std::string_view bytes, std::size_t bits);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool value);

  /// Appends one bit at the end.
  void push_back(bool value);

  /// Appends all bits of `other` at the end.
  void append(const BitVec& other);

  /// Number of set bits.
  std::size_t popcount() const;

  /// Hamming distance; both vectors must have equal size.
  std::size_t hamming_distance(const BitVec& other) const;

  /// String of '0'/'1', index 0 first.
  std::string to_string() const;

  /// Bitwise XOR; sizes must match.
  BitVec operator^(const BitVec& other) const;

  bool operator==(const BitVec& other) const;
  bool operator!=(const BitVec& other) const { return !(*this == other); }

  /// Lexicographic order so BitVec can key std::map / sort for dedup.
  bool operator<(const BitVec& other) const;

  /// Bit values as ints (handy for tests and report code).
  std::vector<int> to_bits() const;

  /// The packed words: bit i is bit i % 64 of word i / 64, and the bits
  /// past size() in the last word are zero.
  std::span<const std::uint64_t> words() const { return {data(), word_count()}; }

 private:
  static constexpr std::size_t kWordBits = 64;
  static std::size_t words_for(std::size_t bits) {
    return (bits + kWordBits - 1) / kWordBits;
  }
  /// Words held for `bits` bits: the inline word up to kWordBits, else the
  /// next power of two of the words needed. Capacity is a function of the
  /// size, so push_back grows geometrically without storing it.
  static std::size_t capacity_for(std::size_t bits);

  std::size_t word_count() const { return words_for(size_); }
  bool is_inline() const { return size_ <= kWordBits; }
  std::uint64_t* data() { return is_inline() ? &inline_ : heap_; }
  const std::uint64_t* data() const { return is_inline() ? &inline_ : heap_; }

  std::size_t size_ = 0;
  union {
    std::uint64_t inline_ = 0;  ///< the bits while size_ <= kWordBits
    std::uint64_t* heap_;       ///< capacity_for(size_) words otherwise
  };
};

}  // namespace ropuf

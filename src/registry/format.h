// Binary wire primitives for the enrollment registry (see docs/registry.md).
//
// The registry file is a little-endian byte stream assembled from three
// CRC32-checked sections (header, device index, packed records). This header
// provides the pieces every producer and consumer shares:
//
//  * crc32 — the IEEE 802.3 polynomial (reflected, init/xorout 0xffffffff),
//    the same checksum zlib and PNG use, table-driven.
//  * ByteWriter / ByteReader — explicit little-endian packing, so a registry
//    written on any host loads on any other. No struct memcpy, no padding.
//  * FormatError — a ropuf::Error subclass tagged with *which* structural
//    defect was detected, so corruption tests (and operators) can tell a
//    truncated download from a bit-rotted index from a bad record.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/error.h"

namespace ropuf::registry {

/// CRC32 (IEEE, reflected) of `size` bytes. `seed` chains incremental
/// updates: crc32(b, crc32(a)) == crc32(a + b).
std::uint32_t crc32(std::string_view bytes, std::uint32_t seed = 0);

/// The structural defect a registry load can detect. Each maps to exactly
/// one check in the load path, so tests can assert the *right* check fired.
enum class Defect {
  kTruncated,    ///< file shorter than the structure it claims to hold
  kBadMagic,     ///< leading bytes are not the format's magic
  kBadVersion,   ///< format version this reader does not understand
  kHeaderCrc,    ///< header bytes fail their checksum
  kIndexCrc,     ///< device-index section fails its checksum
  kRecordsCrc,   ///< records section fails its checksum
  kBadIndex,     ///< index entries unsorted, duplicated, or out of bounds
  kBadRecord,    ///< a device record's payload is internally inconsistent
};

/// Stable human-readable name for a defect (used in error messages).
const char* defect_name(Defect defect);

/// Load-time failure tagged with the defect that was detected.
class FormatError : public Error {
 public:
  FormatError(Defect defect, const std::string& what)
      : Error(std::string("registry format error [") + defect_name(defect) + "]: " +
              what),
        defect_(defect) {}

  Defect defect() const { return defect_; }

 private:
  Defect defect_;
};

/// Appends little-endian scalars to a growing byte string.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// IEEE-754 doubles travel as their 64-bit pattern, so round-trips are
  /// bit-exact (including -0.0; the library never stores NaN margins).
  void f64(double v);
  void raw(std::string_view bytes) { bytes_.append(bytes); }

  std::size_t size() const { return bytes_.size(); }
  const std::string& bytes() const { return bytes_; }
  std::string take() { return std::move(bytes_); }

 private:
  std::string bytes_;
};

// --------------------------------------------------- sectioned container
//
// The base registry ("ROPUFREG", registry.h) and the append-only delta
// segments ("ROPUFDLT", epoch.h) share one container layout: a 68-byte
// header, a fixed-width device index sorted by id, and a records section,
// each CRC32-checked. SectionedImage (open, validate, search) and
// ImageBuilder (sort, assemble) are its one implementation, and
// write_file_atomic its one writer, so the two formats cannot drift apart
// structurally; ImageKind is everything that tells them apart.

/// Header byte count of every sectioned registry image.
inline constexpr std::size_t kHeaderBytes = 68;
/// Header bytes the header CRC covers (everything before the CRC itself).
inline constexpr std::size_t kHeaderCrcSpan = 64;
/// Bytes per index entry: u64 device id, u64 record offset, u64 record size.
inline constexpr std::size_t kIndexEntryBytes = 24;

/// What distinguishes one sectioned format from the other.
struct ImageKind {
  std::string_view magic;  ///< the 8 leading bytes
  /// Newest version written; readers accept 1..this (the container layout
  /// is version-stable, only record payloads grew).
  std::uint32_t version = 0;
  /// Whether a size-0 index entry is a tombstone, which must carry offset 0
  /// (deltas), or an ordinary entry whose empty payload fails to decode
  /// with kBadRecord (the base registry's historical behavior).
  bool tombstones = false;
};

/// One device index entry; `offset` is relative to the records section.
struct IndexEntry {
  std::uint64_t device_id = 0;
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  bool tombstone = false;  ///< size 0 in an image whose kind has tombstones
};

/// A validated sectioned image, mapped from a file or owning its bytes.
/// Copies share the backing bytes; all accessors are const and safe to call
/// concurrently.
class SectionedImage {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Validates an image end to end — magic, version, all three CRCs,
  /// section geometry, index invariants (strictly ascending ids, every
  /// entry inside the records section, the tombstone shape) — and adopts
  /// it. Throws FormatError with the specific Defect otherwise.
  static SectionedImage from_bytes(std::string bytes, const ImageKind& kind);

  /// Maps the file read-only (reads it where mapping fails), then validates
  /// exactly like from_bytes. Throws ropuf::Error when it cannot be opened.
  static SectionedImage load_file(const std::string& path, const ImageKind& kind);

  std::size_t entry_count() const { return entry_count_; }
  std::size_t byte_size() const { return bytes_.size(); }

  /// The i-th index entry (ascending device id order).
  IndexEntry entry_at(std::size_t i) const;
  /// Binary search over the raw index: the position of device_id, or npos.
  std::size_t index_position(std::uint64_t device_id) const;
  /// The record payload an entry points at (empty for a size-0 entry).
  std::string_view payload(const IndexEntry& entry) const {
    return bytes_.substr(records_offset_ + entry.offset, entry.size);
  }

 private:
  SectionedImage(std::shared_ptr<const void> owner, std::string_view bytes,
                 const ImageKind& kind);

  std::shared_ptr<const void> owner_;  ///< keeps the mapping/buffer alive
  std::string_view bytes_;
  bool tombstones_ = false;
  std::size_t entry_count_ = 0;
  std::size_t records_offset_ = 0;
};

/// Stages encoded record payloads by device id and assembles them, sorted
/// by id, into an image of one kind: the build step behind RegistryBuilder
/// and DeltaBuilder.
class ImageBuilder {
 public:
  explicit ImageBuilder(const ImageKind& kind) : kind_(kind) {}

  /// Stages a record payload; an empty one (no record encodes to zero
  /// bytes) stages a tombstone, index-only with offset 0 and size 0.
  /// Returns false, staging nothing, when the id is already staged.
  bool stage(std::uint64_t device_id, std::string payload) {
    return entries_.emplace(device_id, std::move(payload)).second;
  }

  std::size_t size() const { return entries_.size(); }

  /// Header + index + records with all three CRCs filled in.
  std::string build() const;

 private:
  ImageKind kind_;
  std::map<std::uint64_t, std::string> entries_;
};

/// The one writer of registry and delta files. Writes `bytes` to a temp
/// file in the target's directory, fsyncs it, renames it over `path` and
/// fsyncs the directory, so readers — including a server that mapped the
/// old file — see the old generation or the new one, never a mix. The temp
/// name (".ropuf-write-...") can never match discover_delta_paths. On
/// failure the temp file is removed, `path` is untouched and ropuf::Error
/// propagates.
void write_file_atomic(const std::string& path, std::string_view bytes);

/// Reads little-endian scalars off a byte view; any read past the end
/// throws FormatError with the defect the caller is decoding under.
class ByteReader {
 public:
  ByteReader(std::string_view bytes, Defect on_overrun)
      : bytes_(bytes), on_overrun_(on_overrun) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  void need(std::size_t n) const;

  std::string_view bytes_;
  Defect on_overrun_;
  std::size_t pos_ = 0;
};

}  // namespace ropuf::registry

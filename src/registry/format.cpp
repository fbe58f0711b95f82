#include "registry/format.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>

namespace ropuf::registry {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char byte : bytes) {
    c = table[(c ^ static_cast<std::uint8_t>(byte)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

const char* defect_name(Defect defect) {
  switch (defect) {
    case Defect::kTruncated: return "truncated";
    case Defect::kBadMagic: return "bad-magic";
    case Defect::kBadVersion: return "bad-version";
    case Defect::kHeaderCrc: return "header-crc";
    case Defect::kIndexCrc: return "index-crc";
    case Defect::kRecordsCrc: return "records-crc";
    case Defect::kBadIndex: return "bad-index";
    case Defect::kBadRecord: return "bad-record";
  }
  return "unknown";
}

void ByteWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void ByteWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void ByteWriter::f64(double v) {
  std::uint64_t pattern = 0;
  static_assert(sizeof(pattern) == sizeof(v));
  std::memcpy(&pattern, &v, sizeof(pattern));
  u64(pattern);
}

void ByteReader::need(std::size_t n) const {
  if (remaining() < n) {
    throw FormatError(on_overrun_, "read of " + std::to_string(n) +
                                       " bytes at offset " + std::to_string(pos_) +
                                       " overruns the " +
                                       std::to_string(bytes_.size()) + "-byte region");
  }
}

std::uint8_t ByteReader::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[pos_++]);
}

std::uint16_t ByteReader::u16() {
  const std::uint16_t lo = u8();
  const std::uint16_t hi = u8();
  return static_cast<std::uint16_t>(lo | (hi << 8));
}

std::uint32_t ByteReader::u32() {
  const std::uint32_t lo = u16();
  const std::uint32_t hi = u16();
  return lo | (hi << 16);
}

std::uint64_t ByteReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double ByteReader::f64() {
  const std::uint64_t pattern = u64();
  double v = 0.0;
  std::memcpy(&v, &pattern, sizeof(v));
  return v;
}

// ----------------------------------------------------- sectioned container

namespace {

/// Little-endian u64 at `offset`; the caller guarantees bounds (index reads
/// after validation proved the geometry).
std::uint64_t read_u64_at(std::string_view bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[offset + b]))
         << (8 * b);
  }
  return v;
}

}  // namespace

SectionedImage SectionedImage::from_bytes(std::string bytes, const ImageKind& kind) {
  auto owned = std::make_shared<const std::string>(std::move(bytes));
  const std::string_view view(*owned);
  return SectionedImage(std::move(owned), view, kind);
}

SectionedImage SectionedImage::load_file(const std::string& path,
                                         const ImageKind& kind) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ROPUF_REQUIRE(fd >= 0, "cannot open registry file " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw Error("cannot stat registry file " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  void* addr = size > 0 ? ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0)
                        : MAP_FAILED;
  ::close(fd);
  if (addr != MAP_FAILED) {
    std::shared_ptr<const void> owner(
        addr, [size](const void* p) { ::munmap(const_cast<void*>(p), size); });
    return SectionedImage(std::move(owner),
                          std::string_view(static_cast<const char*>(addr), size), kind);
  }
  // Empty files, and filesystems without mmap support, are read instead.
  std::ifstream in(path, std::ios::binary);
  ROPUF_REQUIRE(in.good(), "cannot open registry file " + path);
  return from_bytes(std::string(std::istreambuf_iterator<char>(in), {}), kind);
}

SectionedImage::SectionedImage(std::shared_ptr<const void> owner,
                               std::string_view view, const ImageKind& kind)
    : owner_(std::move(owner)), bytes_(view), tombstones_(kind.tombstones) {
  if (view.size() < kind.magic.size()) {
    throw FormatError(Defect::kTruncated, "file is " + std::to_string(view.size()) +
                                              " bytes, shorter than the magic");
  }
  if (std::memcmp(view.data(), kind.magic.data(), kind.magic.size()) != 0) {
    throw FormatError(Defect::kBadMagic, "leading bytes are not " + std::string(kind.magic));
  }
  if (view.size() < kHeaderBytes) {
    throw FormatError(Defect::kTruncated, "file is " + std::to_string(view.size()) +
                                              " bytes, shorter than the header");
  }
  ByteReader header(view.substr(0, kHeaderBytes), Defect::kTruncated);
  header.u64();  // magic, already checked
  const std::uint32_t file_version = header.u32();
  const std::uint32_t header_bytes = header.u32();
  if (file_version == 0 || file_version > kind.version) {
    throw FormatError(Defect::kBadVersion,
                      "version " + std::to_string(file_version) +
                          ", this reader handles 1.." + std::to_string(kind.version));
  }
  if (header_bytes != kHeaderBytes) {
    throw FormatError(Defect::kBadVersion,
                      "header claims " + std::to_string(header_bytes) +
                          " bytes, version " + std::to_string(kind.version) +
                          " defines " + std::to_string(kHeaderBytes));
  }
  const std::uint64_t device_count = header.u64();
  const std::uint64_t index_offset = header.u64();
  const std::uint64_t index_size = header.u64();
  const std::uint64_t records_offset = header.u64();
  const std::uint64_t records_size = header.u64();
  const std::uint32_t index_crc = header.u32();
  const std::uint32_t records_crc = header.u32();
  const std::uint32_t header_crc = header.u32();
  if (header_crc != crc32(view.substr(0, kHeaderCrcSpan))) {
    throw FormatError(Defect::kHeaderCrc, "stored header checksum does not match");
  }

  // Section geometry. The header CRC already vouches for these fields, so a
  // mismatch here means the file body was cut or grew, not that a field bit
  // rotted. A CRC is no defense against a *crafted* header, though, so every
  // bound is checked against the actual view size before any derived
  // arithmetic: device_count is capped first, which makes the index_size
  // product and the records_offset sum provably non-wrapping in u64.
  if (index_offset != kHeaderBytes ||
      device_count > (view.size() - kHeaderBytes) / kIndexEntryBytes ||
      index_size != device_count * kIndexEntryBytes) {
    throw FormatError(Defect::kBadIndex, "index geometry inconsistent with header");
  }
  if (records_offset != index_offset + index_size) {
    throw FormatError(Defect::kBadIndex, "records section does not follow the index");
  }
  if (records_size != view.size() - records_offset) {
    throw FormatError(Defect::kTruncated,
                      "file is " + std::to_string(view.size()) + " bytes, header wants " +
                          std::to_string(records_size) + "-byte records at offset " +
                          std::to_string(records_offset));
  }
  if (index_crc != crc32(view.substr(index_offset, index_size))) {
    throw FormatError(Defect::kIndexCrc, "stored index checksum does not match");
  }
  if (records_crc != crc32(view.substr(records_offset, records_size))) {
    throw FormatError(Defect::kRecordsCrc, "stored records checksum does not match");
  }
  entry_count_ = static_cast<std::size_t>(device_count);
  records_offset_ = static_cast<std::size_t>(records_offset);

  // Index invariants: strictly ascending ids, every entry inside the
  // records section. A tombstone (size 0) carries no payload, so its offset
  // must be 0 — a nonzero offset there means the entry bits rotted in a way
  // the CRCs cannot have missed, i.e. the file was crafted.
  for (std::size_t i = 0; i < entry_count_; ++i) {
    const IndexEntry entry = entry_at(i);
    if (i > 0 && entry.device_id <= entry_at(i - 1).device_id) {
      throw FormatError(Defect::kBadIndex, "device ids not strictly ascending");
    }
    if (entry.tombstone && entry.offset != 0) {
      throw FormatError(Defect::kBadIndex,
                        "tombstone entry " + std::to_string(i) + " carries an offset");
    }
    if (entry.offset > records_size || entry.size > records_size - entry.offset) {
      throw FormatError(Defect::kBadIndex,
                        "index entry " + std::to_string(i) + " points outside records");
    }
  }
}

IndexEntry SectionedImage::entry_at(std::size_t i) const {
  ROPUF_REQUIRE(i < entry_count_, "index entry out of range");
  const std::size_t at = kHeaderBytes + i * kIndexEntryBytes;
  const std::uint64_t size = read_u64_at(bytes_, at + 16);
  return IndexEntry{read_u64_at(bytes_, at), read_u64_at(bytes_, at + 8), size,
                    tombstones_ && size == 0};
}

std::size_t SectionedImage::index_position(std::uint64_t device_id) const {
  std::size_t lo = 0, hi = entry_count_;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const std::uint64_t mid_id = read_u64_at(bytes_, kHeaderBytes + mid * kIndexEntryBytes);
    if (mid_id == device_id) return mid;
    if (mid_id < device_id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return npos;
}

std::string ImageBuilder::build() const {
  ByteWriter index;
  std::string records;
  for (const auto& [device_id, payload] : entries_) {
    index.u64(device_id);
    index.u64(payload.empty() ? 0 : records.size());
    index.u64(payload.size());
    records += payload;
  }
  ByteWriter header;
  header.raw(kind_.magic);
  header.u32(kind_.version);
  header.u32(static_cast<std::uint32_t>(kHeaderBytes));
  header.u64(entries_.size());
  header.u64(kHeaderBytes);
  header.u64(index.size());
  header.u64(kHeaderBytes + index.size());
  header.u64(records.size());
  header.u32(crc32(index.bytes()));
  header.u32(crc32(records));
  header.u32(crc32(header.bytes()));  // over exactly the kHeaderCrcSpan bytes above

  std::string file = header.take();
  file += index.bytes();
  file += records;
  return file;
}

void write_file_atomic(const std::string& path, std::string_view bytes) {
  namespace fs = std::filesystem;
  // Through a symlink, replace the file it names, as an in-place write did.
  const fs::path target = fs::weakly_canonical(fs::absolute(path));
  const fs::path dir = target.parent_path();
  static std::atomic<unsigned> serial{0};
  std::string temp;
  int fd = -1;
  do {
    temp = (dir / (".ropuf-write-" + std::to_string(::getpid()) + "-" +
                   std::to_string(serial++)))
               .string();
    fd = ::open(temp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  } while (fd < 0 && errno == EEXIST);
  ROPUF_REQUIRE(fd >= 0, "cannot create a temp file next to " + path);
  try {
    struct stat st{};
    if (::stat(target.c_str(), &st) == 0) ::fchmod(fd, st.st_mode & 07777);
    for (std::size_t done = 0; done < bytes.size();) {
      const ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
      if (n < 0 && errno == EINTR) continue;
      ROPUF_REQUIRE(n > 0, "failed writing " + path);
      done += static_cast<std::size_t>(n);
    }
    ROPUF_REQUIRE(::fsync(fd) == 0, "cannot sync " + path);
    const int closed = ::close(fd);
    fd = -1;
    ROPUF_REQUIRE(closed == 0, "failed writing " + path);
    ROPUF_REQUIRE(::rename(temp.c_str(), target.c_str()) == 0,
                  "cannot replace " + path);
  } catch (...) {
    if (fd >= 0) ::close(fd);
    ::unlink(temp.c_str());
    throw;
  }
  // The rename is durable only once the directory entry is.
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  const bool synced = dir_fd >= 0 && ::fsync(dir_fd) == 0;
  if (dir_fd >= 0) ::close(dir_fd);
  ROPUF_REQUIRE(synced, "cannot sync the directory of " + path);
}

}  // namespace ropuf::registry

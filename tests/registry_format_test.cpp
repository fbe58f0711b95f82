// Structural tests for the binary enrollment registry: wire primitives,
// builder validation, and — the part that matters operationally — the
// corruption taxonomy. Every Defect must be raised by exactly the tampering
// it names, so a failed load tells the operator what actually happened to
// the file.
#include "registry/registry.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/rng.h"
#include "registry/format.h"

namespace ropuf::registry {
namespace {

puf::ConfigurableEnrollment sample_enrollment(std::uint64_t seed, bool with_helper) {
  Rng rng(seed);
  const puf::BoardLayout layout{5, 8};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  auto enrollment =
      puf::configurable_enroll(values, layout, puf::SelectionCase::kIndependent);
  if (with_helper) {
    enrollment.helper.resize(layout.pair_count);
    for (std::size_t p = 0; p < layout.pair_count; ++p) {
      enrollment.helper[p] = puf::PairHelperData{rng.gaussian(0.0, 2.0), p % 3 == 0};
    }
  }
  return enrollment;
}

std::string small_registry_bytes(std::size_t devices = 4) {
  RegistryBuilder builder;
  for (std::size_t d = 0; d < devices; ++d) {
    builder.add(100 + d * 10, sample_enrollment(d + 1, d % 2 == 1));
  }
  return builder.build();
}

// --- header layout mirrors (tests poke bytes at these offsets) ------------
constexpr std::size_t kHeaderBytes = 68;
constexpr std::size_t kHeaderCrcSpan = 64;
constexpr std::size_t kIndexEntryBytes = 24;
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kDeviceCountOffset = 16;
constexpr std::size_t kIndexCrcOffset = 56;
constexpr std::size_t kRecordsCrcOffset = 60;
constexpr std::size_t kHeaderCrcOffset = 64;

constexpr std::size_t kIndexSizeOffset = 32;
constexpr std::size_t kRecordsOffsetOffset = 40;
constexpr std::size_t kRecordsSizeOffset = 48;

void poke_u32(std::string& bytes, std::size_t offset, std::uint32_t v) {
  for (std::size_t b = 0; b < 4; ++b) {
    bytes[offset + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

void poke_u64(std::string& bytes, std::size_t offset, std::uint64_t v) {
  for (std::size_t b = 0; b < 8; ++b) {
    bytes[offset + b] = static_cast<char>((v >> (8 * b)) & 0xff);
  }
}

std::uint64_t peek_u64(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[offset + b]))
         << (8 * b);
  }
  return v;
}

/// Recomputes the section and header checksums after a deliberate content
/// change, so tests can reach the checks *behind* the CRCs (bad index
/// invariants, bad record payloads).
void repatch_crcs(std::string& bytes) {
  const std::uint64_t devices = peek_u64(bytes, kDeviceCountOffset);
  const std::size_t index_size = devices * kIndexEntryBytes;
  const std::size_t records_offset = kHeaderBytes + index_size;
  const std::string_view view(bytes);
  poke_u32(bytes, kIndexCrcOffset, crc32(view.substr(kHeaderBytes, index_size)));
  poke_u32(bytes, kRecordsCrcOffset, crc32(view.substr(records_offset)));
  poke_u32(bytes, kHeaderCrcOffset, crc32(view.substr(0, kHeaderCrcSpan)));
}

Defect defect_of(const std::string& bytes) {
  try {
    Registry::from_bytes(bytes);
  } catch (const FormatError& e) {
    return e.defect();
  }
  ADD_FAILURE() << "expected a FormatError";
  return Defect::kTruncated;
}

// ------------------------------------------------------------------- crc32

TEST(RegistryFormat, Crc32MatchesTheIeeeCheckValue) {
  // The standard check value every IEEE-802.3 implementation must produce.
  EXPECT_EQ(crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(crc32(""), 0x00000000u);
}

/// The CRC32 as one table lookup per byte: the reference the word-at-a-time
/// crc32 must match on every input.
std::uint32_t bytewise_crc32(std::string_view bytes, std::uint32_t seed = 0) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char byte : bytes) {
    c = table[(c ^ static_cast<std::uint8_t>(byte)) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

/// `n` seeded random bytes.
std::string random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.uniform_below(256));
  return bytes;
}

TEST(RegistryFormat, Crc32MatchesABytewiseReferenceAtEveryLengthAndOffset) {
  // Lengths 0..300 at buffer offsets 0..7 take every split into 8-byte
  // steps, the 4-byte step and the byte tail, at every alignment of the
  // word loads (the sanitize job runs this under UBSan's alignment check).
  const std::string buffer = random_bytes(300 + 8, 0xc4c32);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::string_view bytes = std::string_view(buffer).substr(offset, length);
      ASSERT_EQ(crc32(bytes), bytewise_crc32(bytes))
          << "offset " << offset << ", length " << length;
      ASSERT_EQ(crc32(bytes, 0x9e3779b9u), bytewise_crc32(bytes, 0x9e3779b9u))
          << "seeded, offset " << offset << ", length " << length;
    }
  }
}

TEST(RegistryFormat, Crc32ChainsIncrementally) {
  const std::string a = "registry";
  const std::string b = "sections";
  EXPECT_EQ(crc32(b, crc32(a)), crc32(a + b));
  // At every split of a 300-byte input.
  const std::string bytes = random_bytes(300, 0x5b117);
  const std::string_view view(bytes);
  for (std::size_t split = 0; split <= bytes.size(); ++split) {
    ASSERT_EQ(crc32(view.substr(split), crc32(view.substr(0, split))), crc32(view))
        << "split " << split;
  }
}

TEST(RegistryFormat, ByteRoundTripIsExact) {
  std::string bytes;
  ByteWriter writer(bytes);
  writer.u8(0xab);
  writer.u16(0xbeef);
  writer.u32(0xdeadbeefu);
  writer.u64(0x0123456789abcdefull);
  writer.f64(-0.0);
  writer.f64(1.0 / 3.0);
  writer.raw("\x01\x02\xfe");
  // Little-endian whatever the host: the low byte of each scalar first.
  EXPECT_EQ(bytes.substr(0, 7), std::string("\xab\xef\xbe\xef\xbe\xad\xde", 7));

  ByteReader reader(bytes, Defect::kBadRecord);
  EXPECT_EQ(reader.u8(), 0xab);
  EXPECT_EQ(reader.u16(), 0xbeef);
  EXPECT_EQ(reader.u32(), 0xdeadbeefu);
  EXPECT_EQ(reader.u64(), 0x0123456789abcdefull);
  EXPECT_TRUE(std::signbit(reader.f64()));
  EXPECT_EQ(reader.f64(), 1.0 / 3.0);
  std::array<std::uint8_t, 3> raw{};
  reader.raw(raw);
  EXPECT_EQ(raw, (std::array<std::uint8_t, 3>{0x01, 0x02, 0xfe}));
  EXPECT_TRUE(reader.exhausted());
}

TEST(RegistryFormat, ReaderOverrunThrowsTheConfiguredDefect) {
  ByteReader reader("abc", Defect::kBadRecord);
  try {
    reader.u64();
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.defect(), Defect::kBadRecord);
    EXPECT_STREQ(e.what(),
                 "registry format error [bad-record]: read of 8 bytes at offset 0 "
                 "overruns the 3-byte region");
  }
  // A bulk read overruns the same way, and a failed read consumes nothing.
  EXPECT_EQ(reader.u8(), 'a');
  std::array<std::uint8_t, 3> raw{};
  try {
    reader.raw(raw);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.defect(), Defect::kBadRecord);
    EXPECT_STREQ(e.what(),
                 "registry format error [bad-record]: read of 3 bytes at offset 1 "
                 "overruns the 3-byte region");
  }
  EXPECT_EQ(reader.remaining(), 2u);
}

// ------------------------------------------------------------------ builder

TEST(RegistryBuilderTest, RejectsDuplicateDeviceIds) {
  RegistryBuilder builder;
  builder.add(7, sample_enrollment(1, false));
  EXPECT_THROW(builder.add(7, sample_enrollment(2, false)), ropuf::Error);
}

TEST(RegistryBuilderTest, RejectsInconsistentEnrollments) {
  auto enrollment = sample_enrollment(1, false);
  enrollment.selections.pop_back();  // arity no longer matches the layout
  RegistryBuilder builder;
  EXPECT_THROW(builder.add(1, std::move(enrollment)), ropuf::Error);
}

TEST(RegistryBuilderTest, IndexIsSortedRegardlessOfInsertionOrder) {
  RegistryBuilder builder;
  builder.add(300, sample_enrollment(1, false));
  builder.add(100, sample_enrollment(2, false));
  builder.add(200, sample_enrollment(3, false));
  const Registry registry = Registry::from_bytes(builder.build());
  ASSERT_EQ(registry.device_count(), 3u);
  EXPECT_EQ(registry.device_id_at(0), 100u);
  EXPECT_EQ(registry.device_id_at(1), 200u);
  EXPECT_EQ(registry.device_id_at(2), 300u);
}

TEST(RegistryBuilderTest, BuildIsDeterministic) {
  EXPECT_EQ(small_registry_bytes(), small_registry_bytes());
}

// ------------------------------------------------------------------ lookups

TEST(RegistryTest, LookupReturnsFieldExactEnrollments) {
  const auto original = sample_enrollment(5, true);
  RegistryBuilder builder;
  builder.add(42, original);
  const Registry registry = Registry::from_bytes(builder.build());

  EXPECT_TRUE(registry.contains(42));
  EXPECT_FALSE(registry.contains(43));
  EXPECT_FALSE(registry.find(43).has_value());
  EXPECT_THROW(registry.lookup(43), ropuf::Error);

  const auto decoded = registry.lookup(42);
  EXPECT_EQ(decoded.mode, original.mode);
  EXPECT_EQ(decoded.layout.stages, original.layout.stages);
  EXPECT_EQ(decoded.layout.pair_count, original.layout.pair_count);
  ASSERT_EQ(decoded.selections.size(), original.selections.size());
  for (std::size_t p = 0; p < original.selections.size(); ++p) {
    EXPECT_EQ(decoded.selections[p].top_config, original.selections[p].top_config);
    EXPECT_EQ(decoded.selections[p].bottom_config,
              original.selections[p].bottom_config);
    // Margins travel as their bit pattern: exact equality, not approximate.
    EXPECT_EQ(decoded.selections[p].margin, original.selections[p].margin);
    EXPECT_EQ(decoded.selections[p].bit, original.selections[p].bit);
  }
  ASSERT_EQ(decoded.helper.size(), original.helper.size());
  for (std::size_t p = 0; p < original.helper.size(); ++p) {
    EXPECT_EQ(decoded.helper[p].offset_ps, original.helper[p].offset_ps);
    EXPECT_EQ(decoded.helper[p].masked, original.helper[p].masked);
  }
}

TEST(RegistryTest, StatsAggregateTheFleet) {
  const Registry registry = Registry::from_bytes(small_registry_bytes(4));
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.devices, 4u);
  EXPECT_EQ(stats.case1_devices + stats.case2_devices, 4u);
  EXPECT_EQ(stats.helper_devices, 2u);
  EXPECT_EQ(stats.min_stages, 5u);
  EXPECT_EQ(stats.max_stages, 5u);
  EXPECT_EQ(stats.total_pairs, 4u * 8u);
  EXPECT_GE(stats.bias_percent(), 0.0);
  EXPECT_LE(stats.bias_percent(), 100.0);
  EXPECT_GT(stats.mean_abs_margin(), 0.0);
}

TEST(RegistryTest, LoadFileMatchesFromBytes) {
  const std::string bytes = small_registry_bytes();
  const std::string path = ::testing::TempDir() + "ropuf_registry_load_test.reg";
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  const Registry from_file = Registry::load_file(path);
  const Registry from_memory = Registry::from_bytes(bytes);
  ASSERT_EQ(from_file.device_count(), from_memory.device_count());
  EXPECT_EQ(from_file.byte_size(), from_memory.byte_size());
  for (std::size_t i = 0; i < from_file.device_count(); ++i) {
    const std::uint64_t id = from_file.device_id_at(i);
    EXPECT_EQ(id, from_memory.device_id_at(i));
    EXPECT_EQ(from_file.lookup(id).response(), from_memory.lookup(id).response());
  }
  std::remove(path.c_str());
}

// --------------------------------------------------------------- corruption

TEST(RegistryCorruption, EachTamperingRaisesItsOwnDefect) {
  const std::string good = small_registry_bytes();
  ASSERT_NO_THROW(Registry::from_bytes(good));

  {  // Truncation: below the magic, below the header, and mid-records.
    EXPECT_EQ(defect_of(good.substr(0, 4)), Defect::kTruncated);
    EXPECT_EQ(defect_of(good.substr(0, kHeaderBytes - 1)), Defect::kTruncated);
    EXPECT_EQ(defect_of(good.substr(0, good.size() - 1)), Defect::kTruncated);
  }
  {  // Wrong leading magic.
    std::string bad = good;
    bad[0] = 'X';
    EXPECT_EQ(defect_of(bad), Defect::kBadMagic);
  }
  {  // A future format version (header CRC repatched so only the version
     // check can fire).
    std::string bad = good;
    poke_u32(bad, kVersionOffset, kFormatVersion + 1);
    poke_u32(bad, kHeaderCrcOffset, crc32(std::string_view(bad).substr(0, kHeaderCrcSpan)));
    EXPECT_EQ(defect_of(bad), Defect::kBadVersion);
  }
  {  // A flipped header bit fails the header CRC.
    std::string bad = good;
    bad[kDeviceCountOffset] = static_cast<char>(bad[kDeviceCountOffset] ^ 0x01);
    EXPECT_EQ(defect_of(bad), Defect::kHeaderCrc);
  }
  {  // A flipped index bit fails the index CRC.
    std::string bad = good;
    bad[kHeaderBytes] = static_cast<char>(bad[kHeaderBytes] ^ 0x01);
    EXPECT_EQ(defect_of(bad), Defect::kIndexCrc);
  }
  {  // A flipped records bit fails the records CRC.
    std::string bad = good;
    bad[bad.size() - 1] = static_cast<char>(bad[bad.size() - 1] ^ 0x01);
    EXPECT_EQ(defect_of(bad), Defect::kRecordsCrc);
  }
  {  // Unsorted index with *valid* checksums: the invariant check fires.
    std::string bad = good;
    for (std::size_t b = 0; b < 8; ++b) {
      std::swap(bad[kHeaderBytes + b], bad[kHeaderBytes + kIndexEntryBytes + b]);
    }
    repatch_crcs(bad);
    EXPECT_EQ(defect_of(bad), Defect::kBadIndex);
  }
}

TEST(RegistryCorruption, CraftedHeaderCannotWrapGeometryArithmetic) {
  // A hostile header (every CRC recomputed, so checksums vouch for it) whose
  // section fields only add up modulo 2^64. Before the overflow-safe
  // geometry checks, device_count = 2^63 passed "index_size == count *
  // kIndexEntryBytes" (the product wraps to 0) and the index-invariant loop
  // walked 2^63 entries off the end of the view.
  {
    std::string bad = small_registry_bytes();
    poke_u64(bad, kDeviceCountOffset, std::uint64_t{1} << 63);
    poke_u64(bad, kIndexSizeOffset, 0);  // (2^63 * 24) mod 2^64
    poke_u64(bad, kRecordsOffsetOffset, kHeaderBytes);
    poke_u64(bad, kRecordsSizeOffset, bad.size() - kHeaderBytes);
    const std::string_view view(bad);
    poke_u32(bad, kIndexCrcOffset, crc32(view.substr(kHeaderBytes, 0)));
    poke_u32(bad, kRecordsCrcOffset, crc32(view.substr(kHeaderBytes)));
    poke_u32(bad, kHeaderCrcOffset, crc32(view.substr(0, kHeaderCrcSpan)));
    EXPECT_EQ(defect_of(bad), Defect::kBadIndex);
  }
  // A device count the file cannot possibly hold (no wrapping involved)
  // fails the same bound instead of reading index entries past EOF.
  {
    std::string bad = small_registry_bytes();
    const std::uint64_t devices = peek_u64(bad, kDeviceCountOffset);
    poke_u64(bad, kDeviceCountOffset, devices + 1000000);
    poke_u64(bad, kIndexSizeOffset, (devices + 1000000) * kIndexEntryBytes);
    poke_u32(bad, kHeaderCrcOffset,
             crc32(std::string_view(bad).substr(0, kHeaderCrcSpan)));
    EXPECT_EQ(defect_of(bad), Defect::kBadIndex);
  }
}

TEST(RegistryCorruption, BadRecordPayloadSurfacesOnLookupNotLoad) {
  // A record whose payload is internally inconsistent but whose checksums
  // are valid (e.g. written by a buggy producer) loads fine — the defect
  // surfaces as kBadRecord when that record is decoded, which the auth
  // service maps to a per-request corrupt-record verdict.
  std::string bytes = small_registry_bytes();
  const std::uint64_t devices = peek_u64(bytes, kDeviceCountOffset);
  const std::size_t records_offset = kHeaderBytes + devices * kIndexEntryBytes;
  const std::uint64_t first_id = peek_u64(bytes, kHeaderBytes);
  const std::uint64_t first_offset = peek_u64(bytes, kHeaderBytes + 8);
  bytes[records_offset + first_offset] = 7;  // mode byte outside {0, 1}
  repatch_crcs(bytes);

  const Registry registry = Registry::from_bytes(bytes);
  try {
    registry.lookup(first_id);
    FAIL() << "expected FormatError";
  } catch (const FormatError& e) {
    EXPECT_EQ(e.defect(), Defect::kBadRecord);
  }
  // Other records are unaffected.
  EXPECT_NO_THROW(registry.lookup(registry.device_id_at(1)));
}

TEST(RegistryCorruption, DefectNamesAreStable) {
  EXPECT_STREQ(defect_name(Defect::kTruncated), "truncated");
  EXPECT_STREQ(defect_name(Defect::kBadMagic), "bad-magic");
  EXPECT_STREQ(defect_name(Defect::kBadRecord), "bad-record");
}

}  // namespace
}  // namespace ropuf::registry

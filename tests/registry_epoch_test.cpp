// Lifecycle tests for the epoch-versioned registry layer: the ROPUFDLT
// delta container (round trip and corruption taxonomy, including the
// tombstone-shape rule), the newest-epoch-wins overlay, deterministic
// compaction, epoch numbering, and — the operational core — snapshot
// pinning: a reader that pinned a generation keeps bit-stable answers
// while writers append, install and compact underneath it. The concurrency
// tests here are the ones the CI TSan job leans on.
#include "registry/epoch.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "puf/serialization.h"
#include "registry/format.h"
#include "registry/registry.h"

namespace ropuf::registry {
namespace {

puf::ConfigurableEnrollment sample_enrollment(std::uint64_t seed) {
  Rng rng(seed);
  const puf::BoardLayout layout{5, 8};
  std::vector<double> values(layout.units_required());
  for (auto& v : values) v = rng.gaussian(0.0, 10.0);
  return puf::configurable_enroll(values, layout, puf::SelectionCase::kIndependent);
}

std::string enrollment_image(const puf::ConfigurableEnrollment& enrollment) {
  return puf::serialize_enrollment(enrollment);
}

/// Base registry with devices 10, 20, ..., 10*n, enrollment seed = id.
Registry base_registry(std::size_t devices = 4) {
  RegistryBuilder builder;
  for (std::size_t d = 1; d <= devices; ++d) {
    builder.add(10 * d, sample_enrollment(10 * d));
  }
  return Registry::from_bytes(builder.build());
}

DeltaSegment delta_upserting(std::uint64_t device_id, std::uint64_t seed) {
  DeltaBuilder builder;
  builder.upsert(device_id, sample_enrollment(seed));
  return DeltaSegment::from_bytes(builder.build());
}

DeltaSegment delta_retiring(std::uint64_t device_id) {
  DeltaBuilder builder;
  builder.retire(device_id);
  return DeltaSegment::from_bytes(builder.build());
}

// --- container layout mirrors (shared with the base format) ---------------
constexpr std::size_t kDeltaHeaderBytes = 68;
constexpr std::size_t kDeltaHeaderCrcSpan = 64;
constexpr std::size_t kDeltaIndexEntry = 24;
constexpr std::size_t kVersionOffset = 8;
constexpr std::size_t kDeviceCountOffset = 16;
constexpr std::size_t kIndexCrcOffset = 56;
constexpr std::size_t kRecordsCrcOffset = 60;
constexpr std::size_t kHeaderCrcOffset = 64;

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

void repatch_crcs(std::string& bytes) {
  const std::uint64_t entries = peek_u64(bytes, kDeviceCountOffset);
  const std::size_t index_size = entries * kDeltaIndexEntry;
  const std::size_t records_offset = kDeltaHeaderBytes + index_size;
  const std::string_view view(bytes);
  poke_u32(bytes, kIndexCrcOffset, crc32(view.substr(kDeltaHeaderBytes, index_size)));
  poke_u32(bytes, kRecordsCrcOffset, crc32(view.substr(records_offset)));
  poke_u32(bytes, kHeaderCrcOffset, crc32(view.substr(0, kDeltaHeaderCrcSpan)));
}

Defect delta_defect_of(const std::string& bytes) {
  try {
    DeltaSegment::from_bytes(bytes);
  } catch (const FormatError& e) {
    return e.defect();
  }
  ADD_FAILURE() << "expected a FormatError";
  return Defect::kTruncated;
}

/// The defect any loader call raises.
template <typename Load>
Defect defect_of(Load load) {
  try {
    load();
  } catch (const FormatError& e) {
    return e.defect();
  }
  ADD_FAILURE() << "expected a FormatError";
  return Defect::kTruncated;
}

std::vector<std::string> listing(const std::filesystem::path& dir) {
  std::vector<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

// ----------------------------------------------------------- delta segment

TEST(DeltaSegment, RoundTripsUpsertsAndTombstones) {
  DeltaBuilder builder;
  builder.upsert(30, sample_enrollment(777));
  builder.retire(20);
  builder.upsert(95, sample_enrollment(888));
  const DeltaSegment delta = DeltaSegment::from_bytes(builder.build());

  EXPECT_EQ(delta.entry_count(), 3u);
  EXPECT_EQ(delta.upsert_count(), 2u);
  EXPECT_EQ(delta.tombstone_count(), 1u);

  // build() sorts the index ascending regardless of staging order.
  EXPECT_EQ(delta.device_id_at(0), 20u);
  EXPECT_EQ(delta.device_id_at(1), 30u);
  EXPECT_EQ(delta.device_id_at(2), 95u);
  EXPECT_TRUE(delta.tombstone_at(0));
  EXPECT_FALSE(delta.tombstone_at(1));

  EXPECT_EQ(enrollment_image(delta.enrollment_at(1)),
            enrollment_image(sample_enrollment(777)));
  EXPECT_EQ(enrollment_image(delta.enrollment_at(2)),
            enrollment_image(sample_enrollment(888)));

  std::optional<puf::ConfigurableEnrollment> found;
  EXPECT_EQ(delta.find(30, &found), DeltaSegment::Hit::kUpsert);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(enrollment_image(*found), enrollment_image(sample_enrollment(777)));
  EXPECT_EQ(delta.find(20, &found), DeltaSegment::Hit::kTombstone);
  EXPECT_EQ(delta.find(21, &found), DeltaSegment::Hit::kMiss);
}

TEST(DeltaSegment, BuilderRejectsDuplicateIds) {
  DeltaBuilder builder;
  builder.upsert(5, sample_enrollment(1));
  EXPECT_THROW(builder.retire(5), ropuf::Error);
  EXPECT_THROW(builder.upsert(5, sample_enrollment(2)), ropuf::Error);
  // One entry per device survived the rejected stages.
  EXPECT_EQ(builder.entry_count(), 1u);
}

TEST(DeltaSegment, TombstoneHasNoEnrollment) {
  const DeltaSegment delta = delta_retiring(42);
  EXPECT_THROW(delta.enrollment_at(0), ropuf::Error);
}

TEST(DeltaSegment, CorruptionTaxonomy) {
  DeltaBuilder builder;
  builder.upsert(7, sample_enrollment(7));
  builder.retire(9);
  const std::string good = builder.build();
  ASSERT_NO_THROW(DeltaSegment::from_bytes(good));

  {
    std::string bytes = good;
    bytes[0] = 'X';
    EXPECT_EQ(delta_defect_of(bytes), Defect::kBadMagic);
  }
  {
    std::string bytes = good;
    poke_u32(bytes, kVersionOffset, kDeltaFormatVersion + 1);
    EXPECT_EQ(delta_defect_of(bytes), Defect::kBadVersion);
  }
  {
    std::string bytes = good;
    bytes[kDeviceCountOffset] ^= 0x01;  // header content no longer matches CRC
    EXPECT_EQ(delta_defect_of(bytes), Defect::kHeaderCrc);
  }
  {
    std::string bytes = good;
    bytes[kDeltaHeaderBytes] ^= 0x01;  // first index byte
    EXPECT_EQ(delta_defect_of(bytes), Defect::kIndexCrc);
  }
  {
    std::string bytes = good;
    bytes.back() ^= 0x01;  // last record byte
    EXPECT_EQ(delta_defect_of(bytes), Defect::kRecordsCrc);
  }
  {
    EXPECT_EQ(delta_defect_of(good.substr(0, kDeltaHeaderBytes - 1)),
              Defect::kTruncated);
  }
  {
    // A tombstone (size 0) must carry offset 0; a nonzero offset is a
    // malformed index even though it points nowhere.
    std::string bytes = good;
    const std::size_t tombstone_entry = kDeltaHeaderBytes + kDeltaIndexEntry;
    ASSERT_EQ(peek_u64(bytes, tombstone_entry), 9u);
    poke_u64(bytes, tombstone_entry + 8, 1);
    repatch_crcs(bytes);
    EXPECT_EQ(delta_defect_of(bytes), Defect::kBadIndex);
  }
  {
    // Renumbering the tombstone keeps the index ascending and the shape
    // legal — the loader accepts it, proving kBadIndex above came from the
    // offset rule, not the renumbering mechanics.
    std::string bytes = good;
    poke_u64(bytes, kDeltaHeaderBytes + kDeltaIndexEntry, 11);
    repatch_crcs(bytes);
    ASSERT_NO_THROW(DeltaSegment::from_bytes(bytes));
  }
}

TEST(SharedOpener, SizeZeroEntryIsABadRecordInABaseAndATombstoneInADelta) {
  DeltaBuilder builder;
  builder.upsert(7, sample_enrollment(7));
  builder.retire(9);
  const std::string delta_bytes = builder.build();
  const std::size_t tombstone_entry = kDeltaHeaderBytes + kDeltaIndexEntry;
  ASSERT_EQ(peek_u64(delta_bytes, tombstone_entry), 9u);
  ASSERT_EQ(peek_u64(delta_bytes, tombstone_entry + 8), 0u);
  ASSERT_EQ(peek_u64(delta_bytes, tombstone_entry + 16), 0u);

  // The same index under the base magic: the entry loads, and only its
  // decode fails.
  std::string base_bytes = delta_bytes;
  base_bytes.replace(0, 8, "ROPUFREG");
  poke_u32(base_bytes, kHeaderCrcOffset,
           crc32(std::string_view(base_bytes).substr(0, kDeltaHeaderCrcSpan)));
  const Registry base = Registry::from_bytes(base_bytes);
  ASSERT_EQ(base.device_count(), 2u);
  EXPECT_TRUE(base.contains(9));
  EXPECT_EQ(defect_of([&] { (void)base.find(9); }), Defect::kBadRecord);
  EXPECT_EQ(enrollment_image(base.lookup(7)), enrollment_image(sample_enrollment(7)));

  const DeltaSegment delta = DeltaSegment::from_bytes(delta_bytes);
  EXPECT_EQ(delta.tombstone_count(), 1u);
  EXPECT_TRUE(delta.tombstone_at(1));
  EXPECT_EQ(delta.find(9, nullptr), DeltaSegment::Hit::kTombstone);
}

TEST(DeltaSegment, UnsortedIndexIsBadIndex) {
  DeltaBuilder builder;
  builder.upsert(7, sample_enrollment(7));
  builder.retire(9);
  std::string bytes = builder.build();
  // Swap the two ids so the index decreases.
  poke_u64(bytes, kDeltaHeaderBytes, 9);
  poke_u64(bytes, kDeltaHeaderBytes + kDeltaIndexEntry, 7);
  repatch_crcs(bytes);
  EXPECT_EQ(delta_defect_of(bytes), Defect::kBadIndex);
}

// ---------------------------------------------------------------- snapshot

TEST(RegistrySnapshot, OverlayResolvesNewestFirst) {
  Registry base = base_registry(4);  // ids 10, 20, 30, 40
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_upserting(30, 1111));  // refresh an existing device
  deltas.push_back(delta_retiring(20));         // retire one
  deltas.push_back(delta_upserting(95, 2222));  // enroll a new one
  const RegistrySnapshot snapshot(4, std::move(base), std::move(deltas));

  EXPECT_EQ(snapshot.epoch(), 4u);
  EXPECT_EQ(snapshot.device_count(), 4u);
  EXPECT_EQ(snapshot.live_device_ids(),
            (std::vector<std::uint64_t>{10, 30, 40, 95}));
  EXPECT_TRUE(snapshot.contains(95));
  EXPECT_FALSE(snapshot.contains(20));

  // Untouched base device resolves from the base...
  ASSERT_TRUE(snapshot.find(10).has_value());
  EXPECT_EQ(enrollment_image(*snapshot.find(10)),
            enrollment_image(sample_enrollment(10)));
  // ...a refreshed device resolves to the delta record, not the base one...
  ASSERT_TRUE(snapshot.find(30).has_value());
  EXPECT_EQ(enrollment_image(*snapshot.find(30)),
            enrollment_image(sample_enrollment(1111)));
  // ...a tombstoned device resolves to nothing, and an unknown id too.
  EXPECT_FALSE(snapshot.find(20).has_value());
  EXPECT_FALSE(snapshot.find(21).has_value());
  ASSERT_TRUE(snapshot.find(95).has_value());
}

TEST(RegistrySnapshot, ReAddAfterTombstoneWins) {
  Registry base = base_registry(2);  // ids 10, 20
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_retiring(20));
  deltas.push_back(delta_upserting(20, 3333));  // newer delta re-enrolls it
  const RegistrySnapshot snapshot(3, std::move(base), std::move(deltas));

  EXPECT_TRUE(snapshot.contains(20));
  ASSERT_TRUE(snapshot.find(20).has_value());
  EXPECT_EQ(enrollment_image(*snapshot.find(20)),
            enrollment_image(sample_enrollment(3333)));
}

TEST(RegistrySnapshot, EpochMustCoverDeltaChain) {
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_retiring(20));
  EXPECT_THROW(RegistrySnapshot(1, base_registry(2), std::move(deltas)),
               ropuf::Error);
}

// -------------------------------------------------------------- compaction

TEST(Compaction, MergesDeltasBitIdenticallyAtAnyThreadBudget) {
  Registry base = base_registry(6);
  std::vector<DeltaSegment> deltas;
  deltas.push_back(delta_upserting(30, 1111));
  deltas.push_back(delta_retiring(60));
  deltas.push_back(delta_upserting(95, 2222));
  const RegistrySnapshot snapshot(4, std::move(base), std::move(deltas));

  const std::string at1 = compact_snapshot(snapshot, ThreadBudget(1));
  const std::string at2 = compact_snapshot(snapshot, ThreadBudget(2));
  const std::string at8 = compact_snapshot(snapshot, ThreadBudget(8));
  EXPECT_EQ(at1, at2);
  EXPECT_EQ(at1, at8);

  // The merged base answers exactly like the overlay, for every live id
  // and for the retired one.
  const Registry merged = Registry::from_bytes(at1);
  EXPECT_EQ(merged.device_count(), snapshot.device_count());
  for (const std::uint64_t id : snapshot.live_device_ids()) {
    ASSERT_TRUE(merged.find(id).has_value()) << "id " << id;
    EXPECT_EQ(enrollment_image(*merged.find(id)),
              enrollment_image(*snapshot.find(id)))
        << "id " << id;
  }
  EXPECT_FALSE(merged.find(60).has_value());

  // Compacting the compacted generation is the identity.
  const RegistrySnapshot flat(1, Registry::from_bytes(at1), {});
  EXPECT_EQ(compact_snapshot(flat), at1);
}

// ----------------------------------------------------------- epoch registry

TEST(EpochRegistry, NumbersGenerationsDeterministically) {
  EpochRegistry epochs(base_registry(3));
  EXPECT_EQ(epochs.epoch(), 1u);
  EXPECT_EQ(epochs.device_count(), 3u);

  epochs.append_delta(delta_upserting(95, 2222));
  EXPECT_EQ(epochs.epoch(), 2u);
  EXPECT_EQ(epochs.device_count(), 4u);

  epochs.append_delta(delta_retiring(10));
  EXPECT_EQ(epochs.epoch(), 3u);
  EXPECT_EQ(epochs.device_count(), 3u);

  // Compaction folds the chain into a zero-delta generation, epoch + 1.
  const std::string merged = epochs.compact();
  EXPECT_EQ(epochs.epoch(), 4u);
  EXPECT_EQ(epochs.device_count(), 3u);
  EXPECT_TRUE(epochs.snapshot()->deltas().empty());
  EXPECT_EQ(Registry::from_bytes(merged).device_count(), 3u);
}

TEST(EpochRegistry, InstallAlwaysBumpsAndNeverRegresses) {
  EpochRegistry epochs(base_registry(2));
  // A reload with zero deltas is still an observable bump...
  epochs.install(base_registry(2), {});
  EXPECT_EQ(epochs.epoch(), 2u);
  // ...and a restart over a long chain never reports below 1 + deltas.
  std::vector<DeltaSegment> chain;
  for (std::uint64_t id = 100; id < 105; ++id) {
    chain.push_back(delta_upserting(id, id));
  }
  epochs.install(base_registry(2), std::move(chain));
  EXPECT_EQ(epochs.epoch(), 6u);  // max(2 + 1, 1 + 5)
  epochs.install(base_registry(2), {});
  EXPECT_EQ(epochs.epoch(), 7u);  // max(6 + 1, 1)
}

TEST(EpochRegistry, PinnedSnapshotIsImmuneToSwaps) {
  EpochRegistry epochs(base_registry(3));
  const std::shared_ptr<const RegistrySnapshot> pinned = epochs.snapshot();
  const std::string before = enrollment_image(*pinned->find(20));

  epochs.append_delta(delta_upserting(20, 4444));
  epochs.append_delta(delta_retiring(30));
  epochs.compact();

  // The pinned generation still answers exactly as it did.
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->device_count(), 3u);
  EXPECT_EQ(enrollment_image(*pinned->find(20)), before);
  EXPECT_TRUE(pinned->contains(30));

  // The head moved on.
  const std::shared_ptr<const RegistrySnapshot> head = epochs.snapshot();
  EXPECT_EQ(head->epoch(), 4u);
  EXPECT_EQ(enrollment_image(*head->find(20)),
            enrollment_image(sample_enrollment(4444)));
  EXPECT_FALSE(head->contains(30));
}

TEST(EpochRegistry, ConcurrentReadersSurviveWriterChurn) {
  // The TSan target: readers pin snapshots and resolve lookups while a
  // writer appends and compacts. Readers must always observe a coherent
  // generation — device 10 is never touched, so it must resolve in every
  // snapshot regardless of which epoch the reader caught.
  EpochRegistry epochs(base_registry(4));
  const std::string stable = enrollment_image(*epochs.snapshot()->find(10));

  std::atomic<bool> stop{false};
  std::atomic<std::size_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&]() {
      while (!stop.load(std::memory_order_relaxed)) {
        const std::shared_ptr<const RegistrySnapshot> snapshot = epochs.snapshot();
        const std::uint64_t epoch = snapshot->epoch();
        ASSERT_GE(epoch, 1u);
        const auto found = snapshot->find(10);
        ASSERT_TRUE(found.has_value());
        ASSERT_EQ(enrollment_image(*found), stable);
        // Same pinned snapshot, asked twice: same epoch, same answer.
        ASSERT_EQ(snapshot->epoch(), epoch);
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  for (std::uint64_t round = 0; round < 8; ++round) {
    epochs.append_delta(delta_upserting(1000 + round, round));
    if (round % 3 == 2) epochs.compact(ThreadBudget(2));
  }
  // Let the readers overlap the final generation too.
  while (reads.load(std::memory_order_relaxed) < 64) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(epochs.snapshot()->epoch(), 1u + 8u + 2u);  // 8 appends + 2 compacts
}

// ------------------------------------------------------------- file helpers

class EpochFilesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ropuf_epoch_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    base_path_ = (dir_ / "fleet.ropufreg").string();
    RegistryBuilder builder;
    for (std::uint64_t d = 1; d <= 3; ++d) {
      builder.add(10 * d, sample_enrollment(10 * d));
    }
    builder.write_file(base_path_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string delta_path(int n) const {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".delta-%04d", n);
    return base_path_ + suffix;
  }

  std::filesystem::path dir_;
  std::string base_path_;
};

TEST_F(EpochFilesTest, DiscoversDeltasSortedAndIgnoresStrangers) {
  // Written out of order; discovery must return lexicographic order.
  DeltaBuilder second;
  second.retire(20);
  second.write_file(delta_path(2));
  DeltaBuilder first;
  first.upsert(95, sample_enrollment(95));
  first.write_file(delta_path(1));
  // Noise that must not be picked up: a different base's delta and a
  // non-delta sibling.
  std::ofstream((dir_ / "other.ropufreg.delta-0001").string()) << "x";
  std::ofstream((dir_ / "fleet.ropufreg.bak").string()) << "x";

  const std::vector<std::string> paths = discover_delta_paths(base_path_);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0], delta_path(1));
  EXPECT_EQ(paths[1], delta_path(2));

  const EpochFileSet files = load_epoch_files(base_path_);
  EXPECT_EQ(files.base.device_count(), 3u);
  ASSERT_EQ(files.deltas.size(), 2u);
  EXPECT_EQ(files.deltas[0].upsert_count(), 1u);
  EXPECT_EQ(files.deltas[1].tombstone_count(), 1u);
  EXPECT_EQ(files.delta_paths, paths);
}

TEST_F(EpochFilesTest, LoadEpochFilesFeedsAServableHead) {
  DeltaBuilder first;
  first.upsert(95, sample_enrollment(95));
  first.write_file(delta_path(1));

  EpochFileSet files = load_epoch_files(base_path_);
  EpochRegistry epochs(std::move(files.base), std::move(files.deltas));
  EXPECT_EQ(epochs.epoch(), 2u);
  EXPECT_EQ(epochs.device_count(), 4u);
  EXPECT_TRUE(epochs.snapshot()->contains(95));
}

TEST_F(EpochFilesTest, EachLoaderRejectsTheOtherFormatsMagic) {
  DeltaBuilder builder;
  builder.upsert(95, sample_enrollment(95));
  builder.write_file(delta_path(1));
  RegistryBuilder base;
  for (std::uint64_t d = 1; d <= 3; ++d) base.add(10 * d, sample_enrollment(10 * d));

  EXPECT_EQ(delta_defect_of(base.build()), Defect::kBadMagic);
  EXPECT_EQ(defect_of([&] { DeltaSegment::load_file(base_path_); }), Defect::kBadMagic);
  EXPECT_EQ(defect_of([&] { Registry::from_bytes(builder.build()); }),
            Defect::kBadMagic);
  EXPECT_EQ(defect_of([&] { Registry::load_file(delta_path(1)); }), Defect::kBadMagic);
}

TEST_F(EpochFilesTest, EmptyFileIsTruncatedForEitherLoader) {
  // Nothing to map: the opener reads the file instead and validates it
  // like from_bytes("").
  const std::string empty = (dir_ / "empty").string();
  std::ofstream(empty, std::ios::binary).close();
  EXPECT_EQ(defect_of([&] { Registry::load_file(empty); }), Defect::kTruncated);
  EXPECT_EQ(defect_of([&] { DeltaSegment::load_file(empty); }), Defect::kTruncated);
}

TEST_F(EpochFilesTest, DeltaLoadFileAgreesWithFromBytes) {
  DeltaBuilder builder;
  for (std::uint64_t id = 100; id < 140; id += 2) builder.upsert(id, sample_enrollment(id));
  for (std::uint64_t id = 101; id < 140; id += 4) builder.retire(id);
  builder.write_file(delta_path(1));

  const DeltaSegment mapped = DeltaSegment::load_file(delta_path(1));
  const DeltaSegment owned = DeltaSegment::from_bytes(builder.build());
  ASSERT_EQ(mapped.entry_count(), owned.entry_count());
  EXPECT_EQ(mapped.tombstone_count(), owned.tombstone_count());
  EXPECT_EQ(mapped.tombstone_count(), 10u);
  for (std::uint64_t id = 95; id < 145; ++id) {
    std::optional<puf::ConfigurableEnrollment> from_file;
    std::optional<puf::ConfigurableEnrollment> from_memory;
    const DeltaSegment::Hit hit = mapped.find(id, &from_file);
    ASSERT_EQ(hit, owned.find(id, &from_memory)) << id;
    if (hit == DeltaSegment::Hit::kUpsert) {
      EXPECT_EQ(enrollment_image(*from_file), enrollment_image(*from_memory)) << id;
    }
  }
}

TEST_F(EpochFilesTest, RewritingAMappedBaseKeepsTheMappedGeneration) {
  // A served base stays mapped. Truncating its file in place would make
  // the next lookup past the new end of file die with SIGBUS, so the
  // writer must replace the file and leave the mapped inode whole.
  const std::string path = (dir_ / "served.ropufreg").string();
  RegistryBuilder big;
  for (std::uint64_t d = 1; d <= 512; ++d) big.add(d, sample_enrollment(d));
  big.write_file(path);
  const Registry served = Registry::load_file(path);

  RegistryBuilder small;
  for (std::uint64_t d = 1; d <= 8; ++d) small.add(1000 + d, sample_enrollment(1000 + d));
  small.write_file(path);

  ASSERT_EQ(served.device_count(), 512u);
  for (std::uint64_t d = 1; d <= 512; ++d) {
    EXPECT_EQ(encode_validated_record(served.lookup(d)),
              encode_validated_record(sample_enrollment(d)))
        << d;
  }
  EXPECT_EQ(Registry::load_file(path).device_count(), 8u);
  EXPECT_EQ(listing(dir_), (std::vector<std::string>{"fleet.ropufreg", "served.ropufreg"}));
}

TEST_F(EpochFilesTest, FailedWriteLeavesTheTargetAndNoTempFile) {
  // Renaming a file over a directory fails only after the temp file is
  // written and synced, so this reaches the writer's last failure point.
  const std::filesystem::path occupied = dir_ / "occupied";
  std::filesystem::create_directory(occupied);
  const std::vector<std::string> before = listing(dir_);
  EXPECT_THROW(write_file_atomic(occupied.string(), "bytes"), ropuf::Error);
  EXPECT_TRUE(std::filesystem::is_directory(occupied));
  EXPECT_EQ(listing(dir_), before);
  EXPECT_THROW(write_file_atomic((dir_ / "absent" / "f").string(), "bytes"),
               ropuf::Error);
  EXPECT_EQ(listing(dir_), before);
}

TEST_F(EpochFilesTest, MissingBaseOrCorruptDeltaFailsTheWholeLoad) {
  EXPECT_THROW(load_epoch_files((dir_ / "absent.ropufreg").string()),
               ropuf::Error);
  std::ofstream(delta_path(1), std::ios::binary) << "not a delta";
  EXPECT_THROW(load_epoch_files(base_path_), FormatError);
}

}  // namespace
}  // namespace ropuf::registry

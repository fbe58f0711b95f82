// Live registry lifecycle: epoch-versioned generations over the immutable
// ROPUFREG store (see docs/registry.md, "Live lifecycle").
//
// The base registry (registry.h) is load-once and immutable — the right
// shape for the read path, the wrong shape for a fleet that enrolls,
// refreshes and retires devices continuously. This layer adds mutation
// without giving up immutability:
//
//  * DeltaSegment — an append-only "ROPUFDLT" file in the same CRC-checked
//    sectioned container as the base store (format.h) and the same columnar
//    record payloads (registry.h), plus *tombstones*: size-0 index entries
//    that retire a device. A delta is itself immutable once written.
//  * RegistrySnapshot — one immutable generation: a base registry plus an
//    ordered list of delta segments, resolved newest-epoch-wins. A snapshot
//    never changes after construction, so any thread may read it forever.
//  * EpochRegistry — the mutable head: holds the current snapshot behind a
//    shared_ptr flip. Readers pin the snapshot they start with (one brief
//    mutex acquisition), so an in-flight verify_batch stays bit-stable
//    across a swap; writers (append_delta / install / compact) serialize on
//    their own mutex and never block readers.
//  * compact_snapshot — merges base+deltas into fresh base-registry bytes on
//    the deterministic parallel pool: newest record wins, tombstoned
//    devices are dropped, and the output is bit-identical at any thread
//    budget. EpochRegistry::compact publishes the merged base as a new
//    single-segment generation without pausing serving — snapshots already
//    pinned keep answering from the old generation.
//
// Epoch numbering: a base with k deltas is epoch 1+k. append_delta and
// compact bump the epoch by one; install (the SIGHUP reload path) publishes
// max(current+1, 1+deltas), so a reload is always observable as an epoch
// bump and a restarted process over the same files reports the same
// starting epoch.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "registry/registry.h"

namespace ropuf::registry {

/// Newest delta ("ROPUFDLT") format revision this library writes; readers
/// accept 1..this (record payloads grew in v2, the container is unchanged).
inline constexpr std::uint32_t kDeltaFormatVersion = 2;

/// The delta container kind: a size-0 index entry is a tombstone.
inline constexpr ImageKind kDeltaImage{"ROPUFDLT", kDeltaFormatVersion, true};

/// Accumulates upserts and tombstones and serializes them into one delta
/// segment. Entries may be staged in any order; build() sorts the index by
/// device id. One segment mentions each device at most once — the segment
/// is the atom of publication, not a redo log.
class DeltaBuilder {
 public:
  /// Stages a fresh (new or replacement) enrollment for a device. Validates
  /// like RegistryBuilder::add; throws ropuf::Error on a duplicate id.
  void upsert(std::uint64_t device_id, puf::ConfigurableEnrollment enrollment);

  /// Stages a tombstone: the device stops resolving in any snapshot that
  /// overlays this segment. Throws ropuf::Error on a duplicate id.
  void retire(std::uint64_t device_id);

  std::size_t entry_count() const { return image_.size(); }

  /// Serializes every staged entry into delta-segment bytes.
  std::string build() const { return image_.build(); }

  /// build() straight to a file through write_file_atomic (throws
  /// ropuf::Error on I/O failure).
  void write_file(const std::string& path) const { write_file_atomic(path, build()); }

 private:
  ImageBuilder image_{kDeltaImage};
};

/// Immutable, shareable view of one loaded delta segment. Copies share the
/// backing bytes; all accessors are const and safe to call concurrently.
class DeltaSegment {
 public:
  /// What a delta lookup resolved to.
  enum class Hit {
    kMiss,       ///< the segment does not mention the device
    kUpsert,     ///< the segment carries a fresh enrollment
    kTombstone,  ///< the segment retires the device
  };

  /// Validates and adopts in-memory delta bytes. Throws FormatError (with
  /// the specific Defect) on any structural problem.
  static DeltaSegment from_bytes(std::string bytes);

  /// Maps (or reads) and validates a delta file exactly like from_bytes.
  static DeltaSegment load_file(const std::string& path);

  std::size_t entry_count() const { return image_.entry_count(); }
  std::size_t tombstone_count() const { return tombstone_count_; }
  std::size_t upsert_count() const { return entry_count() - tombstone_count_; }
  std::size_t byte_size() const { return image_.byte_size(); }

  /// Device id of the i-th index entry (ascending order).
  std::uint64_t device_id_at(std::size_t i) const;
  /// Whether the i-th entry is a tombstone.
  bool tombstone_at(std::size_t i) const;
  /// Decoded enrollment of the i-th entry; throws ropuf::Error for a
  /// tombstone, FormatError(kBadRecord) for an inconsistent payload.
  puf::ConfigurableEnrollment enrollment_at(std::size_t i) const;

  /// O(log n) lookup. On kUpsert the enrollment is written to *enrollment
  /// when the pointer is non-null.
  Hit find(std::uint64_t device_id,
           std::optional<puf::ConfigurableEnrollment>* enrollment) const;

 private:
  explicit DeltaSegment(SectionedImage image);

  SectionedImage image_;
  std::size_t tombstone_count_ = 0;
};

/// One immutable registry generation: base + ordered deltas, resolved
/// newest-epoch-wins. Construction computes the live id set once; after
/// that every accessor is const, lock-free and safe from any thread — the
/// object a reader pins across an epoch swap.
class RegistrySnapshot {
 public:
  /// The generation a fresh load of base + deltas is: epoch 1 + deltas.
  RegistrySnapshot(Registry base, std::vector<DeltaSegment> deltas);
  /// An explicit epoch, which must cover the delta chain (>= 1 + deltas).
  RegistrySnapshot(std::uint64_t epoch, Registry base,
                   std::vector<DeltaSegment> deltas);

  std::uint64_t epoch() const { return epoch_; }
  const Registry& base() const { return base_; }
  const std::vector<DeltaSegment>& deltas() const { return deltas_; }

  /// Devices that resolve after the overlay (base minus tombstoned plus
  /// upserted), ascending.
  const std::vector<std::uint64_t>& live_device_ids() const { return live_ids_; }
  std::size_t device_count() const { return live_ids_.size(); }
  bool contains(std::uint64_t device_id) const;

  /// Overlay lookup: newest delta that mentions the device wins; a
  /// tombstone hides any older record. nullopt when the device never
  /// resolved or is retired; FormatError(kBadRecord) propagates from the
  /// winning record's decode.
  std::optional<puf::ConfigurableEnrollment> find(std::uint64_t device_id) const;

 private:
  std::uint64_t epoch_ = 1;
  Registry base_;
  std::vector<DeltaSegment> deltas_;
  std::vector<std::uint64_t> live_ids_;
};

/// Deterministic merge of a snapshot into fresh base-registry ("ROPUFREG")
/// bytes: every live device's winning enrollment, tombstones dropped.
/// Record decodes run on the deterministic parallel pool — same snapshot,
/// same bytes, at any thread budget. Compacting an already-compacted
/// generation is the identity on its record set.
std::string compact_snapshot(const RegistrySnapshot& snapshot,
                             ThreadBudget threads = {});

/// The mutable head of the registry lifecycle: an atomically swappable
/// RegistrySnapshot. snapshot() is the entire read-side API — one brief
/// mutex acquisition to copy a shared_ptr; everything after that happens on
/// the pinned, immutable snapshot. Writers serialize on a separate mutex,
/// so a long compaction never blocks readers (or delays them beyond the
/// pointer copy).
class EpochRegistry {
 public:
  /// Seeds the head at epoch 1 + deltas.size().
  explicit EpochRegistry(Registry base, std::vector<DeltaSegment> deltas = {});

  /// The current generation, pinned. Callers hold the returned shared_ptr
  /// for as long as they need bit-stable answers; a swap during that window
  /// retires nothing they can observe.
  std::shared_ptr<const RegistrySnapshot> snapshot() const;

  /// Convenience: the current epoch / live-device count.
  std::uint64_t epoch() const { return snapshot()->epoch(); }
  std::size_t device_count() const { return snapshot()->device_count(); }

  /// Publishes the current generation plus one more delta (epoch + 1).
  void append_delta(DeltaSegment delta);

  /// Replaces the whole generation (the SIGHUP reload path). Publishes
  /// epoch max(current + 1, 1 + deltas.size()): always observable as a
  /// bump, and never behind what a fresh process over the same files would
  /// report.
  void install(Registry base, std::vector<DeltaSegment> deltas);

  /// Merges the current generation on the parallel pool and publishes the
  /// compacted base as a new zero-delta generation (epoch + 1). Serving
  /// never pauses: readers pinned to the old generation keep it alive.
  /// Returns the compacted registry bytes so the caller can persist them.
  std::string compact(ThreadBudget threads = {});

 private:
  void publish(std::shared_ptr<const RegistrySnapshot> next);

  mutable std::mutex snapshot_mutex_;  ///< guards current_ (pointer flip only)
  mutable std::mutex writer_mutex_;    ///< serializes append/install/compact
  std::shared_ptr<const RegistrySnapshot> current_;
};

/// Delta files that belong to a base registry file: every `<base>.delta-*`
/// sibling, lexicographically sorted — append order when writers zero-pad
/// (the CLI's `.delta-0001` convention).
std::vector<std::string> discover_delta_paths(const std::string& base_path);

/// A base registry and its delta segments loaded from disk — the unit
/// ropuf_serve (re)loads on SIGHUP and the CLI lifecycle commands operate
/// on.
struct EpochFileSet {
  Registry base;
  std::vector<DeltaSegment> deltas;
  std::vector<std::string> delta_paths;  ///< load order, parallel to deltas
};

/// Loads base + the given delta files (validated like their from_bytes).
EpochFileSet load_epoch_files(const std::string& base_path,
                              const std::vector<std::string>& delta_paths);

/// load_epoch_files over discover_delta_paths(base_path).
EpochFileSet load_epoch_files(const std::string& base_path);

}  // namespace ropuf::registry

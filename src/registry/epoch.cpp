#include "registry/epoch.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace ropuf::registry {

// ------------------------------------------------------------ delta builder

void DeltaBuilder::upsert(std::uint64_t device_id,
                          puf::ConfigurableEnrollment enrollment) {
  const bool fresh = image_.stage(device_id, encode_validated_record(enrollment));
  ROPUF_REQUIRE(fresh, "duplicate device id " + std::to_string(device_id) +
                           " in delta segment");
}

void DeltaBuilder::retire(std::uint64_t device_id) {
  const bool fresh = image_.stage(device_id, std::string());
  ROPUF_REQUIRE(fresh, "duplicate device id " + std::to_string(device_id) +
                           " in delta segment");
}

// ------------------------------------------------------------ delta segment

DeltaSegment::DeltaSegment(SectionedImage image) : image_(std::move(image)) {
  static obs::Counter& loads =
      obs::Registry::instance().counter("registry.delta_loads");
  for (std::size_t i = 0; i < entry_count(); ++i) {
    if (tombstone_at(i)) ++tombstone_count_;
  }
  loads.add(1);
}

DeltaSegment DeltaSegment::from_bytes(std::string bytes) {
  return DeltaSegment(SectionedImage::from_bytes(std::move(bytes), kDeltaImage));
}

DeltaSegment DeltaSegment::load_file(const std::string& path) {
  return DeltaSegment(SectionedImage::load_file(path, kDeltaImage));
}

std::uint64_t DeltaSegment::device_id_at(std::size_t i) const {
  return image_.entry_at(i).device_id;
}

bool DeltaSegment::tombstone_at(std::size_t i) const {
  return image_.entry_at(i).tombstone;
}

puf::ConfigurableEnrollment DeltaSegment::enrollment_at(std::size_t i) const {
  const IndexEntry entry = image_.entry_at(i);
  ROPUF_REQUIRE(!entry.tombstone, "delta entry " + std::to_string(i) +
                                      " is a tombstone, not a record");
  return decode_enrollment_record(image_.payload(entry));
}

DeltaSegment::Hit DeltaSegment::find(
    std::uint64_t device_id,
    std::optional<puf::ConfigurableEnrollment>* enrollment) const {
  const std::size_t position = image_.index_position(device_id);
  if (position == SectionedImage::npos) return Hit::kMiss;
  const IndexEntry entry = image_.entry_at(position);
  if (entry.tombstone) return Hit::kTombstone;
  if (enrollment != nullptr) *enrollment = decode_enrollment_record(image_.payload(entry));
  return Hit::kUpsert;
}

// ---------------------------------------------------------------- snapshot

RegistrySnapshot::RegistrySnapshot(Registry base, std::vector<DeltaSegment> deltas)
    : epoch_(1 + deltas.size()), base_(std::move(base)), deltas_(std::move(deltas)) {
  // Live id set: base ids (already ascending), then each delta (ascending
  // too) merged in oldest to newest — an upsert adds its id, a tombstone
  // drops it — in one linear pass per delta.
  live_ids_.reserve(base_.device_count());
  for (std::size_t i = 0; i < base_.device_count(); ++i) {
    live_ids_.push_back(base_.device_id_at(i));
  }
  for (const DeltaSegment& delta : deltas_) {
    std::vector<std::uint64_t> merged;
    merged.reserve(live_ids_.size() + delta.upsert_count());
    auto older = live_ids_.cbegin();
    for (std::size_t i = 0; i < delta.entry_count(); ++i) {
      const std::uint64_t id = delta.device_id_at(i);
      while (older != live_ids_.cend() && *older < id) merged.push_back(*older++);
      if (older != live_ids_.cend() && *older == id) ++older;
      if (!delta.tombstone_at(i)) merged.push_back(id);
    }
    merged.insert(merged.end(), older, live_ids_.cend());
    live_ids_ = std::move(merged);
  }
}

RegistrySnapshot::RegistrySnapshot(std::uint64_t epoch, Registry base,
                                   std::vector<DeltaSegment> deltas)
    : RegistrySnapshot(std::move(base), std::move(deltas)) {
  ROPUF_REQUIRE(epoch >= epoch_, "snapshot epoch must cover its delta chain");
  epoch_ = epoch;
}

bool RegistrySnapshot::contains(std::uint64_t device_id) const {
  for (auto it = deltas_.rbegin(); it != deltas_.rend(); ++it) {
    const DeltaSegment::Hit hit = it->find(device_id, nullptr);
    if (hit != DeltaSegment::Hit::kMiss) return hit == DeltaSegment::Hit::kUpsert;
  }
  return base_.contains(device_id);
}

std::optional<puf::ConfigurableEnrollment> RegistrySnapshot::find(
    std::uint64_t device_id) const {
  static obs::Counter& delta_hits =
      obs::Registry::instance().counter("registry.delta_hits");
  for (auto it = deltas_.rbegin(); it != deltas_.rend(); ++it) {
    std::optional<puf::ConfigurableEnrollment> enrollment;
    switch (it->find(device_id, &enrollment)) {
      case DeltaSegment::Hit::kUpsert:
        delta_hits.add(1);
        return enrollment;
      case DeltaSegment::Hit::kTombstone:
        delta_hits.add(1);
        return std::nullopt;
      case DeltaSegment::Hit::kMiss:
        break;
    }
  }
  return base_.find(device_id);
}

// -------------------------------------------------------------- compaction

std::string compact_snapshot(const RegistrySnapshot& snapshot,
                             ThreadBudget threads) {
  static obs::Counter& compactions =
      obs::Registry::instance().counter("registry.compactions");
  static obs::Histogram& compact_us =
      obs::Registry::instance().latency_histogram("registry.compact_us");
  const obs::ScopedLatency compact_timer(compact_us);
  const obs::TraceSpan span("registry.compact");

  const std::vector<std::uint64_t>& ids = snapshot.live_device_ids();
  auto enrollments = parallel_transform<puf::ConfigurableEnrollment>(
      ids.size(), threads,
      [&](std::size_t i) {
        std::optional<puf::ConfigurableEnrollment> found = snapshot.find(ids[i]);
        // A live id always resolves: the id set and the overlay were
        // computed from the same immutable segments.
        ROPUF_REQUIRE(found.has_value(), "live device vanished during compaction");
        return std::move(*found);
      },
      /*grain=*/8);

  RegistryBuilder builder;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    builder.add(ids[i], std::move(enrollments[i]));
  }
  compactions.add(1);
  return builder.build();
}

// ----------------------------------------------------------- epoch registry

EpochRegistry::EpochRegistry(Registry base, std::vector<DeltaSegment> deltas)
    : current_(std::make_shared<const RegistrySnapshot>(std::move(base),
                                                        std::move(deltas))) {}

std::shared_ptr<const RegistrySnapshot> EpochRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return current_;
}

void EpochRegistry::publish(std::shared_ptr<const RegistrySnapshot> next) {
  static obs::Counter& swaps =
      obs::Registry::instance().counter("registry.epoch_swaps");
  {
    const std::lock_guard<std::mutex> lock(snapshot_mutex_);
    current_ = std::move(next);
  }
  swaps.add(1);
}

void EpochRegistry::append_delta(DeltaSegment delta) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  const std::shared_ptr<const RegistrySnapshot> current = snapshot();
  std::vector<DeltaSegment> deltas = current->deltas();
  deltas.push_back(std::move(delta));
  publish(std::make_shared<const RegistrySnapshot>(
      current->epoch() + 1, current->base(), std::move(deltas)));
}

void EpochRegistry::install(Registry base, std::vector<DeltaSegment> deltas) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  const std::uint64_t floor = 1 + deltas.size();
  const std::uint64_t epoch = std::max(snapshot()->epoch() + 1, floor);
  publish(std::make_shared<const RegistrySnapshot>(epoch, std::move(base),
                                                   std::move(deltas)));
}

std::string EpochRegistry::compact(ThreadBudget threads) {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  const std::shared_ptr<const RegistrySnapshot> current = snapshot();
  std::string bytes = compact_snapshot(*current, threads);
  publish(std::make_shared<const RegistrySnapshot>(
      current->epoch() + 1, Registry::from_bytes(bytes),
      std::vector<DeltaSegment>{}));
  return bytes;
}

// ------------------------------------------------------------- file helpers

std::vector<std::string> discover_delta_paths(const std::string& base_path) {
  namespace fs = std::filesystem;
  const fs::path base(base_path);
  const fs::path dir = base.has_parent_path() ? base.parent_path() : fs::path(".");
  const std::string prefix = base.filename().string() + ".delta-";
  std::vector<std::string> paths;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > prefix.size() && name.compare(0, prefix.size(), prefix) == 0) {
      paths.push_back((base.has_parent_path() ? dir / name : fs::path(name)).string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

EpochFileSet load_epoch_files(const std::string& base_path,
                              const std::vector<std::string>& delta_paths) {
  EpochFileSet files{Registry::load_file(base_path), {}, delta_paths};
  files.deltas.reserve(delta_paths.size());
  for (const std::string& path : delta_paths) {
    files.deltas.push_back(DeltaSegment::load_file(path));
  }
  return files;
}

EpochFileSet load_epoch_files(const std::string& base_path) {
  return load_epoch_files(base_path, discover_delta_paths(base_path));
}

}  // namespace ropuf::registry

// Fleet-scale enrollment registry: a binary, versioned, columnar store of
// per-device ConfigurableEnrollment records (see docs/registry.md).
//
// The v1 text format (puf/serialization.h) is one file per device and is
// re-parsed on every access — fine for a bench, useless for serving a fleet.
// The registry packs an entire fleet into one file with three CRC32-checked
// sections:
//
//   header   — magic, version, section offsets/sizes, section checksums
//   index    — fixed-width entries sorted by 64-bit device id, so a lookup
//              is one binary search over the raw bytes (no deserialization)
//   records  — per-device payloads, columnar within each record: all
//              configuration bits, then response bits, then margins, so the
//              hot fields stream linearly
//
// The whole file is mapped (or read) once; lookups decode exactly one
// record. Loads validate every checksum up front, so a served registry is
// known-good before the first request — any later decode failure is a
// kBadRecord defect, which the auth service degrades gracefully on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/parallel.h"
#include "puf/schemes.h"
#include "registry/format.h"
#include "silicon/fabrication.h"

namespace ropuf::registry {

/// Newest format revision this library writes; readers accept 1..this.
/// v2 added the record flags word and the optional auth tail (fuzzy-
/// extractor helper blocks + key check value) — v1 files load unchanged
/// with every device unprovisioned for protocol-v2 authentication.
inline constexpr std::uint32_t kFormatVersion = 2;

/// The base registry's container kind: a size-0 index entry is no
/// tombstone here, just a record that fails to decode.
inline constexpr ImageKind kRegistryImage{"ROPUFREG", kFormatVersion, false};

/// Encodes one device record payload (the columnar layout docs/registry.md
/// describes) onto `writer`. Shared by RegistryBuilder and the delta-segment
/// builder (epoch.h), so base and delta records are byte-identical for the
/// same enrollment.
void encode_enrollment_record(ByteWriter& writer, const puf::ConfigurableEnrollment& e);

/// Decodes one record payload; throws FormatError(Defect::kBadRecord) on any
/// internal inconsistency. The exact inverse of encode_enrollment_record.
puf::ConfigurableEnrollment decode_enrollment_record(std::string_view payload);

/// Structural validation of an enrollment about to be encoded (consistent
/// layout/arity, finite margins); throws ropuf::Error on violation.
void validate_enrollment(const puf::ConfigurableEnrollment& e);

/// validate_enrollment, then encode_enrollment_record into a fresh payload:
/// what RegistryBuilder::add and DeltaBuilder::upsert stage.
std::string encode_validated_record(const puf::ConfigurableEnrollment& e);

/// One enrolled device: the 64-bit identity the index is sorted by plus the
/// enrollment artifact the auth service verifies against.
struct DeviceRecord {
  std::uint64_t device_id = 0;
  puf::ConfigurableEnrollment enrollment;
};

/// Deterministic aggregate over every record in a registry; the
/// `registry-stats` CLI command prints exactly these fields.
struct RegistryStats {
  std::size_t devices = 0;
  std::size_t case1_devices = 0;       ///< SelectionCase::kSameConfig records
  std::size_t case2_devices = 0;       ///< SelectionCase::kIndependent records
  std::size_t helper_devices = 0;      ///< records carrying helper data
  std::size_t min_stages = 0, max_stages = 0;
  std::size_t min_pairs = 0, max_pairs = 0;
  std::size_t total_pairs = 0;         ///< enrolled pairs across the fleet
  std::size_t ones = 0;                ///< set enrollment bits (bias numerator)
  std::size_t masked_pairs = 0;        ///< dark-bit-masked pairs (helper data)
  double margin_abs_sum = 0.0;         ///< sum of |margin| over all pairs

  /// Percentage of enrollment bits set (ideal 50).
  double bias_percent() const;
  /// Mean enrollment margin magnitude in ps.
  double mean_abs_margin() const;
};

/// Accumulates device records and serializes them into registry bytes.
/// Records may be added in any order; build() sorts the index by device id.
class RegistryBuilder {
 public:
  /// Validates the enrollment (consistent layout/arity, finite margins) and
  /// stages it. Throws ropuf::Error on a duplicate device id.
  void add(std::uint64_t device_id, puf::ConfigurableEnrollment enrollment);

  std::size_t device_count() const { return image_.size(); }

  /// Serializes every staged record into the registry byte format.
  std::string build() const { return image_.build(); }

  /// build() straight to a file through write_file_atomic (throws
  /// ropuf::Error on I/O failure).
  void write_file(const std::string& path) const { write_file_atomic(path, build()); }

 private:
  ImageBuilder image_{kRegistryImage};
};

/// Immutable, shareable view of a loaded registry. Copies share the backing
/// bytes; all accessors are const and safe to call concurrently.
class Registry {
 public:
  /// Validates and adopts in-memory registry bytes. Throws FormatError
  /// (with the specific Defect) on any structural problem.
  static Registry from_bytes(std::string bytes);

  /// Single-mmap-or-read load through SectionedImage::load_file: the file
  /// is mapped read-only (read into memory where mapping fails), then
  /// validated exactly like from_bytes.
  static Registry load_file(const std::string& path);

  std::size_t device_count() const { return image_.entry_count(); }
  std::size_t byte_size() const { return image_.byte_size(); }

  /// Device id of the i-th index entry (ascending order).
  std::uint64_t device_id_at(std::size_t i) const;

  bool contains(std::uint64_t device_id) const;

  /// O(log n) binary search over the raw index, then a single-record
  /// decode. nullopt when the device is not enrolled; FormatError
  /// (kBadRecord) when the record's payload is inconsistent.
  std::optional<puf::ConfigurableEnrollment> find(std::uint64_t device_id) const;

  /// find() that throws ropuf::Error("unknown device ...") on absence.
  puf::ConfigurableEnrollment lookup(std::uint64_t device_id) const;

  /// Full-scan aggregate (decodes every record; deterministic).
  RegistryStats stats() const;

 private:
  explicit Registry(SectionedImage image);

  SectionedImage image_;
};

/// Knobs of the bulk fleet importer: devices are minted through sil::Fab
/// (per-device streams forked serially, chips minted and enrolled on the
/// parallel pool), so a spec identifies its fleet exactly — same spec, same
/// registry bytes, at any thread budget.
struct FleetSpec {
  std::size_t devices = 1024;
  std::size_t stages = 5;
  std::size_t pairs = 16;
  puf::SelectionCase mode = puf::SelectionCase::kIndependent;
  std::uint64_t seed = 0x5ca1ab1e;
  double noise_sigma_ps = 0.5;      ///< enrollment-readout noise per unit
  sil::ProcessParams process;
  ThreadBudget threads;
};

/// Mints `spec.devices` boards (2*stages x pairs unit grids) and enrolls
/// each at the nominal corner. Device ids are drawn deterministically from
/// the seed (collision-free by construction).
std::vector<DeviceRecord> mint_fleet(const FleetSpec& spec);

/// One minted device with its silicon retained: device id, the fabricated
/// chip, and the enrollment computed from it. This is what a live-prover
/// harness (tools/ropuf_soak) needs — the chip can be re-measured at any
/// operating corner while the enrollment matches the registry built from
/// the same spec.
struct MintedDevice {
  std::uint64_t device_id = 0;
  sil::Chip chip;
  puf::ConfigurableEnrollment enrollment;
};

/// mint_fleet with the chips kept. Consumes exactly the same deterministic
/// streams, so the returned ids and enrollments are bit-identical to
/// mint_fleet(spec) — a registry built from one verifies provers built
/// from the other.
std::vector<MintedDevice> mint_fleet_with_chips(const FleetSpec& spec);

/// mint_fleet + RegistryBuilder in one call; returns the registry bytes.
std::string build_fleet_registry(const FleetSpec& spec);

}  // namespace ropuf::registry

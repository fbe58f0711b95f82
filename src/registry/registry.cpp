#include "registry/registry.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "auth/auth.h"
#include "common/error.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "puf/measurement.h"
#include "silicon/environment.h"

namespace ropuf::registry {
namespace {

// ------------------------------------------------------------- file layout
//
//   [0,8)    magic "ROPUFREG"
//   [8,12)   u32 format version
//   [12,16)  u32 header byte count (kHeaderBytes)
//   [16,24)  u64 device count
//   [24,32)  u64 index offset          [32,40)  u64 index size
//   [40,48)  u64 records offset        [48,56)  u64 records size
//   [56,60)  u32 index CRC32           [60,64)  u32 records CRC32
//   [64,68)  u32 header CRC32 (over bytes [0,64))
//
// followed by the index (kIndexEntryBytes per device, sorted by id) and the
// records section (format.h's SectionedImage reads and ImageBuilder writes
// it). See docs/registry.md for the record payload layout.

// Record flags (the u16 at payload offset 2, reserved-as-zero in v1).
// Unknown bits are a kBadRecord defect so future flags cannot be silently
// ignored by old readers that happen to accept the container version.
constexpr std::uint16_t kFlagHasAuth = 0x1;

// Decode-time sanity bounds: far above any real board, low enough that a
// corrupt size field cannot drive a huge allocation before the payload-size
// cross-check rejects it.
constexpr std::size_t kMaxStages = 1u << 12;
constexpr std::size_t kMaxPairs = 1u << 24;

/// Streams bits LSB-first into whole u64 words; each column is flushed to a
/// word boundary so columns stay independently addressable.
class BitPacker {
 public:
  explicit BitPacker(ByteWriter& writer) : writer_(writer) {}
  void push(bool bit) {
    word_ |= static_cast<std::uint64_t>(bit) << used_;
    if (++used_ == 64) flush();
  }
  void flush() {
    if (used_ == 0) return;
    writer_.u64(word_);
    word_ = 0;
    used_ = 0;
  }

 private:
  ByteWriter& writer_;
  std::uint64_t word_ = 0;
  unsigned used_ = 0;
};

/// Mirror of BitPacker: pulls bits off word-aligned columns.
class BitUnpacker {
 public:
  explicit BitUnpacker(ByteReader& reader) : reader_(reader) {}
  bool pull() {
    if (avail_ == 0) {
      word_ = reader_.u64();
      avail_ = 64;
    }
    const bool bit = (word_ & 1u) != 0;
    word_ >>= 1;
    --avail_;
    return bit;
  }
  void align() {
    word_ = 0;
    avail_ = 0;
  }

 private:
  ByteReader& reader_;
  std::uint64_t word_ = 0;
  unsigned avail_ = 0;
};

std::size_t bit_words(std::size_t bits) { return (bits + 63) / 64; }

/// Exact payload size of a record's v1 columns, the decoder's first
/// integrity check. The v2 auth tail (if flagged) follows these bytes and
/// is sized from its own geometry fields.
std::size_t record_payload_bytes(std::size_t stages, std::size_t pairs,
                                 bool has_helper) {
  const std::size_t config_bits = pairs * stages;
  std::size_t bytes = 16;                            // fixed prefix
  bytes += 2 * bit_words(config_bits) * 8;           // top + bottom configs
  bytes += bit_words(pairs) * 8;                     // response bits
  if (has_helper) bytes += bit_words(pairs) * 8;     // dark-bit mask
  bytes += pairs * 8;                                // margins
  if (has_helper) bytes += pairs * 8;                // helper offsets
  return bytes;
}

/// Byte size of the v2 auth tail: geometry prefix, word-aligned helper
/// blocks, 32-byte key check value.
std::size_t auth_tail_bytes(std::size_t block_count, std::size_t block_bits) {
  return 4 + block_count * bit_words(block_bits) * 8 + 32;
}

}  // namespace

void encode_enrollment_record(ByteWriter& writer,
                              const puf::ConfigurableEnrollment& e) {
  const std::size_t stages = e.layout.stages;
  const std::size_t pairs = e.layout.pair_count;
  const bool has_helper = !e.helper.empty();
  const bool has_auth = e.has_auth();
  writer.u8(e.mode == puf::SelectionCase::kSameConfig ? 0 : 1);
  writer.u8(has_helper ? 1 : 0);
  writer.u16(has_auth ? kFlagHasAuth : 0);
  writer.u32(static_cast<std::uint32_t>(stages));
  writer.u32(static_cast<std::uint32_t>(pairs));
  writer.u32(0);

  BitPacker packer(writer);
  for (const puf::Selection& sel : e.selections) {
    for (std::size_t s = 0; s < stages; ++s) packer.push(sel.top_config.get(s));
  }
  packer.flush();
  for (const puf::Selection& sel : e.selections) {
    for (std::size_t s = 0; s < stages; ++s) packer.push(sel.bottom_config.get(s));
  }
  packer.flush();
  for (const puf::Selection& sel : e.selections) packer.push(sel.bit);
  packer.flush();
  if (has_helper) {
    for (const puf::PairHelperData& h : e.helper) packer.push(h.masked);
    packer.flush();
  }
  for (const puf::Selection& sel : e.selections) writer.f64(sel.margin);
  if (has_helper) {
    for (const puf::PairHelperData& h : e.helper) writer.f64(h.offset_ps);
  }
  if (has_auth) {
    const std::size_t block_bits = e.auth_helper.front().size();
    writer.u8(e.auth_code_id);
    writer.u8(static_cast<std::uint8_t>(e.auth_helper.size()));
    writer.u16(static_cast<std::uint16_t>(block_bits));
    BitPacker helper_packer(writer);
    for (const BitVec& block : e.auth_helper) {
      for (std::size_t b = 0; b < block.size(); ++b) helper_packer.push(block.get(b));
      helper_packer.flush();  // each block word-aligned, like every column
    }
    for (const std::uint8_t byte : e.auth_key_check) writer.u8(byte);
  }
}

puf::ConfigurableEnrollment decode_enrollment_record(std::string_view payload) {
  static obs::Counter& decoded =
      obs::Registry::instance().counter("registry.records_decoded");
  decoded.add(1);

  ByteReader reader(payload, Defect::kBadRecord);
  const std::uint8_t mode = reader.u8();
  const std::uint8_t helper_flag = reader.u8();
  const std::uint16_t flags = reader.u16();
  const std::uint32_t stages = reader.u32();
  const std::uint32_t pairs = reader.u32();
  reader.u32();  // reserved

  auto bad = [](const std::string& what) -> FormatError {
    return FormatError(Defect::kBadRecord, what);
  };
  if (mode > 1) throw bad("mode byte must be 0 (case1) or 1 (case2)");
  if (helper_flag > 1) throw bad("helper flag must be 0 or 1");
  if ((flags & ~kFlagHasAuth) != 0) {
    throw bad("unknown record flag bits 0x" + std::to_string(flags));
  }
  if (stages == 0 || stages > kMaxStages) throw bad("implausible stage count");
  if (pairs == 0 || pairs > kMaxPairs) throw bad("implausible pair count");
  const bool has_helper = helper_flag == 1;
  const bool has_auth = (flags & kFlagHasAuth) != 0;
  const std::size_t base_bytes = record_payload_bytes(stages, pairs, has_helper);
  if (has_auth ? payload.size() < base_bytes : payload.size() != base_bytes) {
    throw bad("payload is " + std::to_string(payload.size()) + " bytes, layout " +
              std::to_string(stages) + "x" + std::to_string(pairs) + " needs " +
              std::to_string(base_bytes) + (has_auth ? " plus an auth tail" : ""));
  }

  puf::ConfigurableEnrollment e;
  e.mode = mode == 0 ? puf::SelectionCase::kSameConfig
                     : puf::SelectionCase::kIndependent;
  e.layout.stages = stages;
  e.layout.pair_count = pairs;
  e.selections.resize(pairs);

  BitUnpacker unpacker(reader);
  for (puf::Selection& sel : e.selections) {
    BitVec config(stages);
    for (std::size_t s = 0; s < stages; ++s) config.set(s, unpacker.pull());
    sel.top_config = std::move(config);
  }
  unpacker.align();
  for (puf::Selection& sel : e.selections) {
    BitVec config(stages);
    for (std::size_t s = 0; s < stages; ++s) config.set(s, unpacker.pull());
    sel.bottom_config = std::move(config);
  }
  unpacker.align();
  for (puf::Selection& sel : e.selections) sel.bit = unpacker.pull();
  unpacker.align();
  if (has_helper) {
    e.helper.resize(pairs);
    for (puf::PairHelperData& h : e.helper) h.masked = unpacker.pull();
    unpacker.align();
  }
  for (puf::Selection& sel : e.selections) {
    sel.margin = reader.f64();
    if (!std::isfinite(sel.margin)) throw bad("non-finite margin");
  }
  if (has_helper) {
    for (puf::PairHelperData& h : e.helper) {
      h.offset_ps = reader.f64();
      if (!std::isfinite(h.offset_ps)) throw bad("non-finite helper offset");
    }
  }
  if (has_auth) {
    e.auth_code_id = reader.u8();
    const std::uint8_t block_count = reader.u8();
    const std::uint16_t block_bits = reader.u16();
    if (e.auth_code_id == 0) throw bad("auth flag set with code id 0");
    if (block_count == 0 || block_bits == 0) {
      throw bad("implausible auth helper geometry");
    }
    if (static_cast<std::size_t>(block_count) * block_bits > pairs) {
      throw bad("auth helper wider than the enrolled response");
    }
    if (reader.remaining() != auth_tail_bytes(block_count, block_bits) - 4) {
      throw bad("auth tail is " + std::to_string(reader.remaining()) +
                " bytes past its geometry, " + std::to_string(block_count) + "x" +
                std::to_string(block_bits) + " needs " +
                std::to_string(auth_tail_bytes(block_count, block_bits) - 4));
    }
    e.auth_helper.resize(block_count);
    for (BitVec& block : e.auth_helper) {
      BitVec bits(block_bits);
      for (std::size_t b = 0; b < block_bits; ++b) bits.set(b, unpacker.pull());
      unpacker.align();
      block = std::move(bits);
    }
    for (std::uint8_t& byte : e.auth_key_check) byte = reader.u8();
  }
  if (!reader.exhausted()) throw bad("trailing bytes after record payload");
  return e;
}

void validate_enrollment(const puf::ConfigurableEnrollment& e) {
  ROPUF_REQUIRE(e.layout.stages > 0 && e.layout.stages <= kMaxStages,
                "enrollment stage count out of range");
  ROPUF_REQUIRE(e.layout.pair_count > 0 && e.layout.pair_count <= kMaxPairs,
                "enrollment pair count out of range");
  ROPUF_REQUIRE(e.selections.size() == e.layout.pair_count,
                "selection count does not match the layout");
  ROPUF_REQUIRE(e.helper.empty() || e.helper.size() == e.layout.pair_count,
                "helper data must be empty or cover every pair");
  for (const puf::Selection& sel : e.selections) {
    ROPUF_REQUIRE(sel.top_config.size() == e.layout.stages &&
                      sel.bottom_config.size() == e.layout.stages,
                  "configuration arity does not match the layout");
    ROPUF_REQUIRE(std::isfinite(sel.margin), "non-finite enrollment margin");
  }
  for (const puf::PairHelperData& h : e.helper) {
    ROPUF_REQUIRE(std::isfinite(h.offset_ps), "non-finite helper offset");
  }
  if (e.has_auth()) {
    ROPUF_REQUIRE(e.auth_code_id != 0, "auth helper present without a code id");
    ROPUF_REQUIRE(e.auth_helper.size() <= 255,
                  "auth helper block count out of range");
    const std::size_t block_bits = e.auth_helper.front().size();
    ROPUF_REQUIRE(block_bits > 0 && block_bits <= 0xffff,
                  "auth helper block width out of range");
    for (const BitVec& block : e.auth_helper) {
      ROPUF_REQUIRE(block.size() == block_bits,
                    "auth helper blocks must share one width");
    }
    ROPUF_REQUIRE(e.auth_helper.size() * block_bits <= e.layout.pair_count,
                  "auth helper wider than the enrolled response");
  } else {
    ROPUF_REQUIRE(e.auth_code_id == 0, "auth code id without helper data");
  }
}

std::string encode_validated_record(const puf::ConfigurableEnrollment& e) {
  validate_enrollment(e);
  ByteWriter writer;
  encode_enrollment_record(writer, e);
  return writer.take();
}

double RegistryStats::bias_percent() const {
  return total_pairs == 0 ? 0.0
                          : 100.0 * static_cast<double>(ones) /
                                static_cast<double>(total_pairs);
}

double RegistryStats::mean_abs_margin() const {
  return total_pairs == 0 ? 0.0 : margin_abs_sum / static_cast<double>(total_pairs);
}

// ------------------------------------------------------------------ builder

void RegistryBuilder::add(std::uint64_t device_id,
                          puf::ConfigurableEnrollment enrollment) {
  const bool fresh = image_.stage(device_id, encode_validated_record(enrollment));
  ROPUF_REQUIRE(fresh, "duplicate device id " + std::to_string(device_id));
}

// ----------------------------------------------------------------- registry

namespace {

obs::Histogram& load_latency() {
  static obs::Histogram& load_us =
      obs::Registry::instance().latency_histogram("registry.load_us");
  return load_us;
}

}  // namespace

Registry::Registry(SectionedImage image) : image_(std::move(image)) {
  static obs::Counter& loads = obs::Registry::instance().counter("registry.loads");
  loads.add(1);
}

Registry Registry::from_bytes(std::string bytes) {
  const obs::ScopedLatency load_timer(load_latency());
  return Registry(SectionedImage::from_bytes(std::move(bytes), kRegistryImage));
}

Registry Registry::load_file(const std::string& path) {
  const obs::ScopedLatency load_timer(load_latency());
  return Registry(SectionedImage::load_file(path, kRegistryImage));
}

std::uint64_t Registry::device_id_at(std::size_t i) const {
  return image_.entry_at(i).device_id;
}

bool Registry::contains(std::uint64_t device_id) const {
  return image_.index_position(device_id) != SectionedImage::npos;
}

std::optional<puf::ConfigurableEnrollment> Registry::find(
    std::uint64_t device_id) const {
  static obs::Counter& lookups = obs::Registry::instance().counter("registry.lookups");
  lookups.add(1);
  const std::size_t position = image_.index_position(device_id);
  if (position == SectionedImage::npos) return std::nullopt;
  return decode_enrollment_record(image_.payload(image_.entry_at(position)));
}

puf::ConfigurableEnrollment Registry::lookup(std::uint64_t device_id) const {
  auto enrollment = find(device_id);
  ROPUF_REQUIRE(enrollment.has_value(),
                "unknown device " + std::to_string(device_id));
  return std::move(*enrollment);
}

RegistryStats Registry::stats() const {
  RegistryStats stats;
  stats.devices = device_count();
  for (std::size_t i = 0; i < stats.devices; ++i) {
    const puf::ConfigurableEnrollment e =
        decode_enrollment_record(image_.payload(image_.entry_at(i)));
    (e.mode == puf::SelectionCase::kSameConfig ? stats.case1_devices
                                               : stats.case2_devices) += 1;
    if (!e.helper.empty()) stats.helper_devices += 1;
    if (i == 0) {
      stats.min_stages = stats.max_stages = e.layout.stages;
      stats.min_pairs = stats.max_pairs = e.layout.pair_count;
    } else {
      stats.min_stages = std::min(stats.min_stages, e.layout.stages);
      stats.max_stages = std::max(stats.max_stages, e.layout.stages);
      stats.min_pairs = std::min(stats.min_pairs, e.layout.pair_count);
      stats.max_pairs = std::max(stats.max_pairs, e.layout.pair_count);
    }
    stats.total_pairs += e.layout.pair_count;
    for (const puf::Selection& sel : e.selections) {
      if (sel.bit) stats.ones += 1;
      stats.margin_abs_sum += std::abs(sel.margin);
    }
    for (const puf::PairHelperData& h : e.helper) {
      if (h.masked) stats.masked_pairs += 1;
    }
  }
  return stats;
}

// ------------------------------------------------------------ fleet import

std::vector<MintedDevice> mint_fleet_with_chips(const FleetSpec& spec) {
  ROPUF_REQUIRE(spec.devices > 0, "fleet must contain at least one device");
  ROPUF_REQUIRE(spec.stages > 0 && spec.stages <= kMaxStages,
                "fleet stage count out of range");
  ROPUF_REQUIRE(spec.pairs > 0 && spec.pairs <= kMaxPairs,
                "fleet pair count out of range");
  static obs::Counter& minted =
      obs::Registry::instance().counter("registry.devices_minted");

  const puf::BoardLayout layout{spec.stages, spec.pairs};
  const std::size_t grid_cols = 2 * spec.stages;
  const std::size_t grid_rows = spec.pairs;

  // Order-sensitive work happens serially up front (the parallel.h
  // contract): per-device chip and measurement streams are forked in device
  // order, and device ids are drawn from their own SplitMix64 stream
  // (redrawing the vanishingly rare collision or zero).
  sil::Fab fab(spec.process, spec.seed);
  Rng measurement_base(spec.seed ^ 0x9e3779b97f4a7c15ull);
  // The auth stream is forked from its own base so v2 provisioning never
  // perturbs the pre-existing chip/measurement/id streams — a v1-era spec
  // still mints bit-identical silicon and enrollments.
  Rng auth_base(spec.seed ^ 0xa0745ecull);
  std::vector<Rng> chip_rngs;
  std::vector<Rng> measurement_rngs;
  std::vector<Rng> auth_rngs;
  std::vector<std::uint64_t> ids;
  chip_rngs.reserve(spec.devices);
  measurement_rngs.reserve(spec.devices);
  auth_rngs.reserve(spec.devices);
  ids.reserve(spec.devices);
  std::unordered_set<std::uint64_t> used_ids;
  std::uint64_t id_state = spec.seed ^ 0x1d5c0de;
  for (std::size_t i = 0; i < spec.devices; ++i) {
    chip_rngs.push_back(fab.fork_chip_stream());
    measurement_rngs.push_back(measurement_base.fork());
    auth_rngs.push_back(auth_base.fork());
    std::uint64_t id = 0;
    do {
      id = splitmix64(id_state);
    } while (id == 0 || !used_ids.insert(id).second);
    ids.push_back(id);
  }

  puf::UnitMeasurementSpec measurement;
  measurement.noise_sigma_ps = spec.noise_sigma_ps;
  auto devices = parallel_transform<MintedDevice>(
      spec.devices, spec.threads,
      [&](std::size_t i) {
        sil::Chip chip = fab.fabricate_with(chip_rngs[i], grid_cols, grid_rows);
        const auto values = puf::measure_unit_ddiffs(chip, sil::nominal_op(),
                                                     measurement, measurement_rngs[i]);
        MintedDevice device{ids[i], std::move(chip),
                            puf::configurable_enroll(values, layout, spec.mode)};
        auth::provision_auth(device.enrollment, auth_rngs[i]);
        return device;
      },
      /*grain=*/8);
  minted.add(spec.devices);
  return devices;
}

std::vector<DeviceRecord> mint_fleet(const FleetSpec& spec) {
  std::vector<DeviceRecord> records;
  std::vector<MintedDevice> devices = mint_fleet_with_chips(spec);
  records.reserve(devices.size());
  for (MintedDevice& device : devices) {
    records.push_back(DeviceRecord{device.device_id, std::move(device.enrollment)});
  }
  return records;
}

std::string build_fleet_registry(const FleetSpec& spec) {
  RegistryBuilder builder;
  for (DeviceRecord& record : mint_fleet(spec)) {
    builder.add(record.device_id, std::move(record.enrollment));
  }
  return builder.build();
}

}  // namespace ropuf::registry

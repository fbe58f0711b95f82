// ropuf_cli — command-line front end for the library's main workflows.
//
// Chips are simulated, so a (seed, grid) pair fully identifies a chip; the
// enroll/respond pair below demonstrates the deployment split: enrollment
// writes a portable record, response evaluation needs only that record plus
// access to the (same) chip.
//
//   ropuf_cli fleet-stats --boards N [--seed S]
//   ropuf_cli enroll --seed S [--stages N] [--pairs P] [--mode case1|case2]
//                    [--out FILE]
//   ropuf_cli respond --seed S --enrollment FILE [--voltage V] [--temp T]
//   ropuf_cli nist --streams N --bits B [--bias P]
//
// The registry/service commands (registry-build, registry-stats, auth-batch)
// operate on the binary enrollment registry of src/registry/ and the batched
// CRP authentication engine of src/service/; see docs/registry.md.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/experiments.h"
#include "auth/auth.h"
#include "cli_common.h"
#include "net/client.h"
#include "analysis/metrics.h"
#include "common/error.h"
#include "common/parallel.h"
#include "crypto/cyclic_code.h"
#include "crypto/fuzzy_extractor.h"
#include "nist/report.h"
#include "nist/suite.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "puf/chip_puf.h"
#include "puf/serialization.h"
#include "registry/epoch.h"
#include "registry/registry.h"
#include "service/auth_service.h"
#include "silicon/dataset_io.h"
#include "silicon/faults.h"
#include "silicon/fleet.h"

namespace {

using namespace ropuf;
using namespace ropuf::cli;

sil::Chip chip_for_seed(std::uint64_t seed) {
  sil::Fab fab(sil::ProcessParams{}, seed);
  return fab.fabricate(16, 32);  // 512 units, the paper's board size
}

/// Shared --fault-rate / --fault-seed handling: an engaged injector when a
/// positive rate was requested. The caller keeps the returned optional
/// alive and wires its address into the readout options.
std::optional<sil::FaultInjector> fault_injector_from_args(const Args& args) {
  const double rate = args.number("fault-rate", 0.0);
  if (rate <= 0.0) return std::nullopt;
  const auto seed = static_cast<std::uint64_t>(args.number("fault-seed", 0xfa017));
  return sil::FaultInjector(sil::FaultPlan::uniform(rate), seed);
}

void print_fault_report(const sil::FaultInjector& injector) {
  const sil::FaultCounts& c = injector.counts();
  std::printf("fault report: %llu reads (%llu dropped, %llu glitched, %llu stuck, "
              "%llu browned-out)\n",
              static_cast<unsigned long long>(c.reads),
              static_cast<unsigned long long>(c.dropped),
              static_cast<unsigned long long>(c.glitched),
              static_cast<unsigned long long>(c.stuck),
              static_cast<unsigned long long>(c.browned_out));
}

int cmd_fleet_stats(const Args& args) {
  const std::size_t boards = static_cast<std::size_t>(args.number("boards", 20));
  sil::VtFleetSpec spec;
  spec.nominal_boards = boards;
  spec.env_boards = 0;
  spec.seed = static_cast<std::uint64_t>(args.number("seed", 0x20140601));
  const sil::VtFleet fleet = sil::make_vt_fleet(spec);

  analysis::DatasetOptions opts;
  opts.distill = true;
  const auto responses = analysis::board_responses(fleet.nominal, opts);
  std::printf("boards: %zu   bits/board: %zu\n", boards, responses[0].size());
  std::printf("uniqueness: %.2f%% (ideal 50)\n", analysis::uniqueness_percent(responses));
  std::printf("uniformity: %.2f%% (ideal 50)\n", analysis::uniformity_percent(responses));
  return 0;
}

int cmd_enroll(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.number("seed", 1));
  const std::size_t stages = static_cast<std::size_t>(args.number("stages", 7));
  const std::size_t pairs = static_cast<std::size_t>(args.number("pairs", 32));
  const std::string mode_name = args.get("mode", "case2");
  ROPUF_REQUIRE(mode_name == "case1" || mode_name == "case2", "mode must be case1|case2");
  const puf::SelectionCase mode = mode_name == "case1" ? puf::SelectionCase::kSameConfig
                                                       : puf::SelectionCase::kIndependent;

  const sil::Chip chip = chip_for_seed(seed);
  Rng rng(seed ^ 0xe40011);
  analysis::DatasetOptions opts;
  opts.distill = true;
  auto injector = fault_injector_from_args(args);
  if (injector.has_value()) {
    opts.injector = &*injector;
    opts.hardened = true;
  }
  const auto values = analysis::board_unit_values(chip, sil::nominal_op(), opts, rng);
  const puf::BoardLayout layout{stages, pairs};
  const auto enrollment = puf::configurable_enroll(values, layout, mode);

  const std::string out = args.get("out", "enrollment.ropuf");
  std::ofstream file(out);
  ROPUF_REQUIRE(file.good(), "cannot open output file " + out);
  file << puf::serialize_enrollment(enrollment);
  std::printf("enrolled chip seed=%llu: %zu bits -> %s\n",
              static_cast<unsigned long long>(seed), pairs, out.c_str());
  std::printf("response: %s\n", enrollment.response().to_string().c_str());
  if (injector.has_value()) print_fault_report(*injector);
  return 0;
}

int cmd_respond(const Args& args) {
  const std::uint64_t seed = static_cast<std::uint64_t>(args.number("seed", 1));
  const std::string path = args.get("enrollment", "enrollment.ropuf");
  std::ifstream file(path);
  ROPUF_REQUIRE(file.good(), "cannot open enrollment file " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto enrollment = puf::parse_enrollment(buffer.str());

  const sil::OperatingPoint op{args.number("voltage", 1.20), args.number("temp", 25.0)};
  const sil::Chip chip = chip_for_seed(seed);
  Rng rng(seed ^ 0x4e590);
  analysis::DatasetOptions opts;
  opts.distill = true;
  auto injector = fault_injector_from_args(args);
  if (injector.has_value()) {
    opts.injector = &*injector;
    opts.hardened = true;
  }
  const auto values = analysis::board_unit_values(chip, op, opts, rng);
  const BitVec response = puf::configurable_respond(values, enrollment);
  std::printf("corner %.2fV / %.1fC\n", op.voltage_v, op.temperature_c);
  std::printf("response:  %s\n", response.to_string().c_str());
  std::printf("reference: %s\n", enrollment.response().to_string().c_str());
  std::printf("flips: %zu of %zu\n", response.hamming_distance(enrollment.response()),
              response.size());
  if (injector.has_value()) print_fault_report(*injector);
  return 0;
}

int cmd_fault_sweep(const Args& args) {
  // End-to-end key-recovery sweep over the full-circuit device: enroll at
  // nominal under an injected fault campaign, derive a key through the
  // code-offset fuzzy extractor, re-measure under the same campaign, and
  // check the key reproduces — hardened pipeline vs. the naive one.
  const std::uint64_t seed = static_cast<std::uint64_t>(args.number("seed", 1));
  const std::uint64_t fault_seed =
      static_cast<std::uint64_t>(args.number("fault-seed", 0xfa017));
  const int trials = static_cast<int>(args.number("trials", 5));
  ROPUF_REQUIRE(trials >= 1, "trials must be >= 1");
  const double max_rate = args.number("max-rate", 0.02);
  ROPUF_REQUIRE(max_rate >= 0.0 && max_rate < 1.0, "max-rate must be in [0, 1)");

  const crypto::CyclicCode code = crypto::CyclicCode::bch_15_7();
  const crypto::FuzzyExtractor extractor(&code);

  const std::vector<double> rates = {0.0, 0.25 * max_rate, 0.5 * max_rate, max_rate};
  std::printf("%-12s %-14s %-14s %-12s\n", "fault rate", "naive keys", "hardened keys",
              "masked/30");
  for (const double rate : rates) {
    // Trials are fully independent (per-trial chip, injector and RNG seeds),
    // so they run across the thread budget; per-trial outcomes land in
    // index-addressed slots and are reduced in trial order.
    struct TrialOutcome {
      bool naive_ok = false;
      bool hardened_ok = false;
      double masked = 0.0;
    };
    const auto outcomes = parallel_transform<TrialOutcome>(
        static_cast<std::size_t>(trials), ThreadBudget(), [&](std::size_t t) {
          const auto trial = static_cast<std::uint64_t>(t);
          const sil::Chip chip = chip_for_seed(seed + trial);
          TrialOutcome outcome;
          for (const bool hardened : {false, true}) {
            puf::DeviceSpec spec;
            spec.stages = 7;
            spec.pair_count = 30;  // 2 BCH(15,7) blocks
            spec.mode = puf::SelectionCase::kIndependent;
            spec.hardened = hardened;
            sil::FaultInjector injector(sil::FaultPlan::uniform(rate),
                                        fault_seed + trial);
            Rng rng(seed ^ (0x6e75ull + trial));
            bool ok = false;
            try {
              puf::ConfigurableRoPufDevice device(&chip, spec, rng);
              device.set_fault_injector(&injector);
              device.enroll(sil::nominal_op(), rng);
              const auto enrollment = extractor.generate(device.enrolled_response(), rng);
              const BitVec response = device.respond(sil::nominal_op(), rng);
              const auto key = extractor.reproduce(response, enrollment.helper);
              ok = key.has_value() && *key == enrollment.key;
              if (hardened) outcome.masked = static_cast<double>(device.masked_count());
            } catch (const ropuf::Error&) {
              ok = false;  // naive pipeline: an unhandled fault kills the trial
            }
            (hardened ? outcome.hardened_ok : outcome.naive_ok) = ok;
          }
          return outcome;
        });
    int naive_ok = 0, hardened_ok = 0;
    double masked_total = 0.0;
    for (const TrialOutcome& outcome : outcomes) {
      naive_ok += outcome.naive_ok ? 1 : 0;
      hardened_ok += outcome.hardened_ok ? 1 : 0;
      masked_total += outcome.masked;
    }
    std::printf("%-12.4f %3d/%-10d %3d/%-10d %-12.1f\n", rate, naive_ok, trials,
                hardened_ok, trials, masked_total / trials);
  }
  return 0;
}

int cmd_nist(const Args& args) {
  const std::size_t streams = static_cast<std::size_t>(args.number("streams", 97));
  const std::size_t bits = static_cast<std::size_t>(args.number("bits", 96));
  const double bias = args.number("bias", 0.5);
  ROPUF_REQUIRE(bias > 0.0 && bias < 1.0, "bias must be in (0, 1)");

  Rng rng(static_cast<std::uint64_t>(args.number("seed", 7)));
  nist::FinalAnalysisReport report;
  const nist::SuiteConfig config =
      bits <= 256 ? nist::paper_config() : nist::SuiteConfig{};
  for (std::size_t s = 0; s < streams; ++s) {
    BitVec stream(bits);
    for (std::size_t i = 0; i < bits; ++i) stream.set(i, rng.uniform() < bias);
    report.add_sequence(nist::run_suite(stream, config));
  }
  std::printf("%s\nverdict: %s\n", report.render().c_str(),
              report.all_pass() ? "PASS" : "FAIL");
  return report.all_pass() ? 0 : 2;
}

int cmd_stats(const Args& args) {
  // Deterministic observability demo: run a pinned mini-workload that
  // exercises every instrumented layer (fab minting, hardened readout under
  // faults, dark-bit masking, the parallel pool, the pairwise-HD kernel and
  // the NIST battery), then print the registry's deterministic projection.
  // With a pinned --threads the table is byte-for-byte reproducible, which
  // the golden-file test relies on.
  obs::set_metrics_enabled(true);
  obs::Registry::instance().reset();
  const std::uint64_t seed = static_cast<std::uint64_t>(args.number("seed", 42));

  // 1) Full-circuit device: hardened enroll + respond under a mild fault
  //    campaign (exercises robust_measure, dark-bit masking, the counter).
  const sil::Chip chip = chip_for_seed(seed);
  puf::DeviceSpec spec;
  spec.stages = 7;
  spec.pair_count = 30;
  spec.mode = puf::SelectionCase::kIndependent;
  spec.hardened = true;
  sil::FaultInjector injector(sil::FaultPlan::uniform(0.01), seed ^ 0xfa017);
  Rng rng(seed ^ 0x57a75);
  puf::ConfigurableRoPufDevice device(&chip, spec, rng);
  device.set_fault_injector(&injector);
  device.enroll(sil::nominal_op(), rng);
  const BitVec response = device.respond(sil::nominal_op(), rng);
  const std::size_t flips = response.hamming_distance(device.enrolled_response());

  // 2) Mini-fleet uniqueness (exercises the row-blocked HD kernel and the
  //    parallel pool across boards).
  sil::VtFleetSpec fleet_spec;
  fleet_spec.nominal_boards = 6;
  fleet_spec.env_boards = 0;
  fleet_spec.seed = seed;
  const sil::VtFleet fleet = sil::make_vt_fleet(fleet_spec);
  analysis::DatasetOptions opts;
  opts.distill = true;
  const auto responses = analysis::board_responses(fleet.nominal, opts);
  const double uniqueness = analysis::uniqueness_percent(responses);

  // 3) A short NIST battery (per-test timing histograms).
  Rng nist_rng(seed ^ 0x715);
  nist::FinalAnalysisReport report;
  for (std::size_t s = 0; s < 4; ++s) {
    BitVec stream(96);
    for (std::size_t i = 0; i < 96; ++i) stream.set(i, nist_rng.uniform() < 0.5);
    report.add_sequence(nist::run_suite(stream, nist::paper_config()));
  }

  std::printf("stats workload: seed=%llu  flips=%zu/%zu  masked=%zu  "
              "uniqueness=%.2f%%\n\n",
              static_cast<unsigned long long>(seed), flips, response.size(),
              device.masked_count(), uniqueness);
  std::printf("%s", obs::metrics_summary_table(obs::Registry::instance().snapshot()).c_str());
  return 0;
}

int cmd_export_dataset(const Args& args) {
  const std::size_t boards = static_cast<std::size_t>(args.number("boards", 20));
  sil::VtFleetSpec spec;
  spec.nominal_boards = boards;
  spec.env_boards = 0;
  spec.seed = static_cast<std::uint64_t>(args.number("seed", 0x20140601));
  const sil::VtFleet fleet = sil::make_vt_fleet(spec);
  Rng rng(spec.seed ^ 0xdada);
  const sil::MeasurementTable table =
      sil::snapshot_fleet(fleet.nominal, sil::nominal_op(), args.number("noise", 0.5), rng);

  const std::string out = args.get("out", "dataset.csv");
  std::ofstream file(out);
  ROPUF_REQUIRE(file.good(), "cannot open output file " + out);
  file << sil::to_csv(table);
  std::printf("exported %zu boards x %zu units -> %s\n", boards,
              table.units_per_board(), out.c_str());
  return 0;
}

int cmd_dataset_stats(const Args& args) {
  // Works on any table in the CSV format — including the real VT dataset
  // converted to it — so the paper's IV.A pipeline can run on real data.
  const std::string path = args.get("dataset", "dataset.csv");
  std::ifstream file(path);
  ROPUF_REQUIRE(file.good(), "cannot open dataset file " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  const sil::MeasurementTable table = sil::from_csv(buffer.str());

  analysis::DatasetOptions opts;
  opts.distill = args.get("distill", "on") != "off";
  opts.stages = static_cast<std::size_t>(args.number("stages", 5));
  const auto responses = analysis::table_responses(table, opts);
  std::printf("boards: %zu   bits/board: %zu   distiller: %s\n", responses.size(),
              responses[0].size(), opts.distill ? "on" : "off");
  if (responses.size() >= 2) {
    std::printf("uniqueness: %.2f%%   uniformity: %.2f%%\n",
                analysis::uniqueness_percent(responses),
                analysis::uniformity_percent(responses));
  }
  nist::FinalAnalysisReport report;
  for (const auto& stream : analysis::combine_board_pairs(responses)) {
    report.add_sequence(nist::run_suite(stream, nist::paper_config()));
  }
  std::printf("%sNIST verdict: %s\n", report.render().c_str(),
              report.all_pass() ? "PASS" : "FAIL");
  return 0;
}

int cmd_registry_build(const Args& args) {
  const std::string out = args.get("out", "fleet.ropufreg");
  if (args.has("enrollments")) {
    // Conversion path: pack existing v1 text enrollments into one registry.
    registry::RegistryBuilder builder;
    std::uint64_t id = static_cast<std::uint64_t>(args.number("base-id", 1));
    std::stringstream list(args.get("enrollments", ""));
    std::string path;
    while (std::getline(list, path, ',')) {
      ROPUF_REQUIRE(!path.empty(), "empty path in --enrollments list");
      std::ifstream file(path);
      ROPUF_REQUIRE(file.good(), "cannot open enrollment file " + path);
      std::stringstream buffer;
      buffer << file.rdbuf();
      builder.add(id++, puf::parse_enrollment(buffer.str()));
    }
    ROPUF_REQUIRE(builder.device_count() > 0, "--enrollments named no files");
    builder.write_file(out);
    std::printf("converted %zu v1 enrollments -> %s\n", builder.device_count(),
                out.c_str());
    return 0;
  }
  // Minting path: fabricate and enroll a synthetic fleet on the pool.
  const registry::FleetSpec spec = fleet_spec_from_args(args);
  const std::string bytes = registry::build_fleet_registry(spec);
  registry::write_file_atomic(out, bytes);
  std::printf("minted %zu devices -> %s (%zu bytes)\n", spec.devices, out.c_str(),
              bytes.size());
  return 0;
}

/// Strict u64 parse for the comma-separated --retire list.
std::uint64_t parse_device_id(const std::string& token) {
  std::size_t consumed = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(token, &consumed);
  } catch (const std::exception&) {
    ROPUF_REQUIRE(false, "non-numeric device id '" + token + "' in --retire");
  }
  ROPUF_REQUIRE(consumed == token.size(),
                "trailing junk in device id '" + token + "' in --retire");
  return static_cast<std::uint64_t>(value);
}

int cmd_registry_append(const Args& args) {
  ROPUF_REQUIRE(args.has("registry"), "--registry is required");
  const std::string base_path = args.get("registry", "");
  // Validate the whole current generation before appending to it: a corrupt
  // base or delta should fail here, not at the server's next reload.
  registry::EpochFileSet files = registry::load_epoch_files(base_path);

  registry::DeltaBuilder builder;
  if (args.has("devices")) {
    // Minted with the same knobs as registry-build, the records are
    // bit-identical to the base generation's — the "refresh" idiom: a
    // re-enrolled fleet slice whose verdicts cannot drift. A different
    // --seed mints genuinely new devices.
    for (registry::DeviceRecord& record : registry::mint_fleet(fleet_spec_from_args(args))) {
      builder.upsert(record.device_id, std::move(record.enrollment));
    }
  }
  if (args.has("retire")) {
    std::stringstream list(args.get("retire", ""));
    std::string token;
    while (std::getline(list, token, ',')) {
      ROPUF_REQUIRE(!token.empty(), "empty id in --retire list");
      builder.retire(parse_device_id(token));
    }
  }
  ROPUF_REQUIRE(builder.entry_count() > 0,
                "nothing to append: give --devices and/or --retire");

  std::string out = args.get("out", "");
  if (out.empty()) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".delta-%04zu", files.deltas.size() + 1);
    out = base_path + suffix;
  }
  builder.write_file(out);

  const registry::DeltaSegment delta = registry::DeltaSegment::load_file(out);
  files.deltas.push_back(delta);
  const registry::RegistrySnapshot snapshot(std::move(files.base),
                                            std::move(files.deltas));
  std::printf("appended %zu upserts, %zu tombstones -> %s (%zu bytes)\n",
              delta.upsert_count(), delta.tombstone_count(), out.c_str(),
              delta.byte_size());
  std::printf("epoch %llu: %zu live devices\n",
              static_cast<unsigned long long>(snapshot.epoch()),
              snapshot.device_count());
  return 0;
}

int cmd_registry_compact(const Args& args) {
  ROPUF_REQUIRE(args.has("registry"), "--registry is required");
  const std::string base_path = args.get("registry", "");
  registry::EpochFileSet files = registry::load_epoch_files(base_path);
  const std::string out = args.get("out", base_path);
  const std::vector<std::string> merged_paths = std::move(files.delta_paths);

  const registry::RegistrySnapshot snapshot(std::move(files.base),
                                            std::move(files.deltas));
  const std::string bytes = registry::compact_snapshot(snapshot);
  registry::write_file_atomic(out, bytes);
  // Compacting in place retires the merged deltas — they are now folded
  // into the base. (Re-reading them against the compacted base would be
  // harmless anyway: re-applying a merged delta is the identity.) A live
  // server keeps serving the generation it mapped until its next SIGHUP,
  // because the base was replaced by rename, not rewritten. With --out
  // elsewhere the original generation stays untouched.
  if (out == base_path) {
    for (const std::string& path : merged_paths) std::filesystem::remove(path);
  }
  std::printf("compacted %zu deltas into %zu devices -> %s (%zu bytes)\n",
              snapshot.deltas().size(), snapshot.device_count(), out.c_str(),
              bytes.size());
  return 0;
}

int cmd_registry_epochs(const Args& args) {
  ROPUF_REQUIRE(args.has("registry"), "--registry is required");
  const std::string base_path = args.get("registry", "");
  registry::EpochFileSet files = registry::load_epoch_files(base_path);
  std::printf("base:    %s (%zu devices, %zu bytes)\n", base_path.c_str(),
              files.base.device_count(), files.base.byte_size());
  for (std::size_t i = 0; i < files.deltas.size(); ++i) {
    const registry::DeltaSegment& delta = files.deltas[i];
    std::printf("delta %zu: %s (%zu upserts, %zu tombstones, %zu bytes)\n", i + 1,
                files.delta_paths[i].c_str(), delta.upsert_count(),
                delta.tombstone_count(), delta.byte_size());
  }
  const registry::RegistrySnapshot snapshot(std::move(files.base),
                                            std::move(files.deltas));
  std::printf("epoch %llu: %zu live devices\n",
              static_cast<unsigned long long>(snapshot.epoch()),
              snapshot.device_count());
  return 0;
}

int cmd_registry_stats(const Args& args) {
  const registry::Registry reg = registry_from_args(args);
  const registry::RegistryStats stats = reg.stats();
  std::printf("registry: %zu devices, %zu bytes, format v%u\n", stats.devices,
              reg.byte_size(), registry::kFormatVersion);
  std::printf("stages: %zu..%zu   pairs: %zu..%zu   total pairs: %zu\n",
              stats.min_stages, stats.max_stages, stats.min_pairs, stats.max_pairs,
              stats.total_pairs);
  std::printf("modes: case1=%zu case2=%zu   helper records: %zu\n",
              stats.case1_devices, stats.case2_devices, stats.helper_devices);
  std::printf("bit bias: %.2f%% (ideal 50)   mean |margin|: %.4f ps\n",
              stats.bias_percent(), stats.mean_abs_margin());
  std::printf("masked pairs: %zu\n", stats.masked_pairs);
  return 0;
}

/// Shared workload knobs for auth-batch and auth-client, so both paths can
/// synthesize the identical request stream and compare verdict digests.
service::WorkloadSpec workload_from_args(const Args& args) {
  service::WorkloadSpec workload;
  workload.requests = static_cast<std::size_t>(args.number("requests", 1024));
  workload.flip_rate = args.number("flip-rate", 0.01);
  workload.forge_rate = args.number("forge-rate", 0.05);
  workload.unknown_rate = args.number("unknown-rate", 0.02);
  workload.seed = static_cast<std::uint64_t>(args.number("workload-seed", 0x570ca57));
  return workload;
}

/// Offline v2 workload: proof intents, turned into verifiable ProofRequests
/// with deterministic verifier-side nonces. Verdicts depend only on whether
/// each tag matches its nonce — which it does exactly when the intent
/// recovered the enrollment key — so the digest is nonce-seed-independent
/// and byte-comparable with the online auth-client v2 path.
std::vector<service::ProofRequest> proof_requests_from_intents(
    const std::vector<service::ProofIntent>& intents, std::uint64_t nonce_seed) {
  auth::NonceFactory nonces(nonce_seed);
  std::vector<service::ProofRequest> requests;
  requests.reserve(intents.size());
  for (const service::ProofIntent& intent : intents) {
    service::ProofRequest request;
    request.request_id = intent.request_id;
    request.device_id = intent.device_id;
    request.nonce = nonces.next(intent.device_id, intent.request_id);
    request.tag = intent.has_key
                      ? auth::prove(intent.key, request.nonce, intent.request_id,
                                    intent.device_id)
                      : auth::Tag{};
    requests.push_back(request);
  }
  return requests;
}

int cmd_auth_batch(const Args& args) {
  const registry::Registry reg = registry_from_args(args);
  const service::AuthServiceOptions opts = auth_options_from_args(args);
  const service::AuthService svc(&reg, opts);
  const std::uint64_t protocol = count_arg(args, "protocol", 1);
  ROPUF_REQUIRE(protocol == 1 || protocol == 2, "--protocol must be 1 or 2");

  service::WorkloadSpec workload = workload_from_args(args);

  if (protocol == 2) {
    const auto intents = service::synthesize_proof_workload(reg, workload);
    const auto requests = proof_requests_from_intents(intents, workload.seed);
    const auto verdicts = svc.verify_proof_batch(requests);
    std::printf("auth batch: %zu proof requests against %zu devices (protocol v2)\n",
                verdicts.size(), reg.device_count());
    print_verdict_stats(verdicts);
    return 0;
  }

  auto injector = fault_injector_from_args(args);
  if (injector.has_value()) workload.injector = &*injector;

  const auto requests = service::synthesize_workload(reg, opts, workload);
  const auto verdicts = svc.verify_batch(requests);

  std::printf("auth batch: %zu requests against %zu devices (bits=%zu max-hd=%zu)\n",
              verdicts.size(), reg.device_count(), opts.response_bits,
              opts.max_distance);
  print_verdict_stats(verdicts);
  if (injector.has_value()) print_fault_report(*injector);
  return 0;
}

int cmd_auth_client(const Args& args) {
  ROPUF_REQUIRE(args.has("port"), "--port is required");
  const registry::Registry reg = registry_from_args(args);
  const service::AuthServiceOptions opts = auth_options_from_args(args);
  const std::uint64_t protocol = count_arg(args, "protocol", 1);
  ROPUF_REQUIRE(protocol == 1 || protocol == 2, "--protocol must be 1 or 2");

  net::ClientOptions client_opts;
  client_opts.host = args.get("host", "127.0.0.1");
  client_opts.port = static_cast<std::uint16_t>(args.number("port", 0));
  client_opts.window = static_cast<std::size_t>(args.number("window", 128));
  net::AuthClient client(client_opts);
  client.connect();

  bool v2 = false;
  if (protocol == 2) {
    // Negotiate; a pre-v2 server answers the hello with kBadFrame and the
    // client falls back to the v1 CRP workload below.
    v2 = client.negotiate() == net::kWireVersionV2;
    if (!v2) std::printf("auth client: server speaks v1; falling back\n");
  }

  if (v2) {
    const auto intents =
        service::synthesize_proof_workload(reg, workload_from_args(args));
    const std::vector<net::WireResponse> responses = client.send_proof_batch(intents);
    std::vector<service::AuthVerdict> verdicts;
    verdicts.reserve(responses.size());
    std::size_t degraded = 0;
    for (const net::WireResponse& response : responses) {
      if (net::wire_status_is_transport(response.status)) {
        ++degraded;
        continue;
      }
      verdicts.push_back(net::auth_verdict(response));
    }
    std::printf("auth client: %zu proof requests to %s:%u (protocol v2)\n",
                intents.size(), client_opts.host.c_str(), client_opts.port);
    if (degraded > 0) {
      std::printf("  degraded answers  %zu (bad-frame/overloaded; digest omits them)\n",
                  degraded);
    }
    print_verdict_stats(verdicts);
    return 0;
  }

  const auto requests =
      service::synthesize_workload(reg, opts, workload_from_args(args));
  const std::vector<net::WireResponse> responses = client.send_batch(requests);

  // Split transport degradations (kBadFrame/kOverloaded) from real
  // verdicts; admission denials (rate-limited/budget-exhausted) ARE
  // verdicts and tally like any other status. The digest is only
  // comparable to offline auth-batch when the whole stream was verified.
  std::vector<service::AuthVerdict> verdicts;
  verdicts.reserve(responses.size());
  std::size_t degraded = 0;
  for (const net::WireResponse& response : responses) {
    if (net::wire_status_is_transport(response.status)) {
      ++degraded;
      continue;
    }
    verdicts.push_back(net::auth_verdict(response));
  }
  std::printf("auth client: %zu requests to %s:%u (bits=%zu max-hd=%zu)\n",
              requests.size(), client_opts.host.c_str(), client_opts.port,
              opts.response_bits, opts.max_distance);
  if (degraded > 0) {
    std::printf("  degraded answers  %zu (bad-frame/overloaded; digest omits them)\n",
                degraded);
  }
  print_verdict_stats(verdicts);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ropuf_cli <command> [--option value ...]\n"
               "commands (alphabetical):\n"
               "  auth-batch [--registry F | --devices N --seed S ...] [--requests N]\n"
               "          [--bits B] [--max-hd D] [--cache C] [--unknown-cache C]\n"
               "          [--flip-rate R]\n"
               "          [--forge-rate R] [--unknown-rate R] [--workload-seed S]\n"
               "          [--fault-rate R] [--fault-seed S]\n"
               "          [--rate-burst N --rate-interval T] [--crp-budget N]\n"
               "          [--reuse-budget N] [--challenge-sketch N]\n"
               "          [--admission-devices N] [--detector on|off]\n"
               "          [--detector-window N] [--detector-threshold N]\n"
               "          [--detector-max-level N] [--detector-decay N]\n"
               "          [--detector-devices N] [--protocol 1|2]\n"
               "  auth-client --port P [--host A] [--window W] [--protocol 1|2]\n"
               "          [--registry F | --devices N --seed S ...] [--requests N]\n"
               "          [--bits B] [--max-hd D] [--flip-rate R] [--forge-rate R]\n"
               "          [--unknown-rate R] [--workload-seed S]\n"
               "  dataset-stats --dataset F [--stages N] [--distill on|off]\n"
               "  enroll  --seed S [--stages N] [--pairs P] [--mode case1|case2] [--out F]\n"
               "          [--fault-rate R] [--fault-seed S]\n"
               "  export-dataset [--boards N] [--seed S] [--noise PS] [--out F]\n"
               "  fault-sweep [--seed S] [--trials N] [--max-rate R] [--fault-seed S]\n"
               "  fleet-stats --boards N [--seed S]\n"
               "  nist    [--streams N] [--bits B] [--bias P] [--seed S]\n"
               "  registry-append --registry F [--out D] [--devices N [--seed S]\n"
               "          [--stages N] [--pairs P] [--mode case1|case2] [--noise PS]]\n"
               "          [--retire id1,id2,...]\n"
               "  registry-build --out F (--devices N [--seed S] [--stages N] [--pairs P]\n"
               "          [--mode case1|case2] [--noise PS] | --enrollments F1,F2,...\n"
               "          [--base-id N])\n"
               "  registry-compact --registry F [--out F2]\n"
               "  registry-epochs --registry F\n"
               "  registry-stats [--registry F | --devices N --seed S ...]\n"
               "  respond --seed S --enrollment F [--voltage V] [--temp T]\n"
               "          [--fault-rate R] [--fault-seed S]\n"
               "  stats   [--seed S]\n"
               "a positive --fault-rate attaches the fault injector and switches the\n"
               "readout to the hardened (retrying, outlier-rejecting) pipeline.\n"
               "every command accepts --threads N (or the ROPUF_THREADS env var) to\n"
               "bound the worker pool; outputs are bit-identical for every N.\n"
               "every command accepts --metrics-out F.json (metrics snapshot) and\n"
               "--trace-out F.json (Chrome trace_event timeline for chrome://tracing).\n"
               "`stats` runs a pinned mini-workload, prints a one-line workload summary\n"
               "(seed, response flips, masked pairs, uniqueness %%), then the metrics\n"
               "summary table in two aligned columns per section: `counter value`\n"
               "(monotonic event counts) and `histogram records` (samples recorded per\n"
               "latency histogram). see docs/observability.md.\n"
               "registry-build/registry-stats/auth-batch operate on the binary fleet\n"
               "registry; registry-append writes a `<base>.delta-NNNN` segment\n"
               "(upserts and/or tombstones) that overlays the base newest-first, and\n"
               "registry-compact folds base+deltas back into one base file; see\n"
               "docs/registry.md. auth-client sends the same synthetic\n"
               "workload to a running ropuf_serve over the framed wire protocol and\n"
               "prints the identical stats block; see docs/serving.md.\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    const Args args(argc, argv, 2);
    apply_thread_budget(args);
    const ObsSession obs_session(args);
    int rc = -1;
    {
      // Scoped so the command-level span completes before the trace is
      // serialized by finish().
      const obs::TraceSpan span("cli.command");
      if (command == "auth-batch") rc = cmd_auth_batch(args);
      else if (command == "auth-client") rc = cmd_auth_client(args);
      else if (command == "dataset-stats") rc = cmd_dataset_stats(args);
      else if (command == "enroll") rc = cmd_enroll(args);
      else if (command == "export-dataset") rc = cmd_export_dataset(args);
      else if (command == "fault-sweep") rc = cmd_fault_sweep(args);
      else if (command == "fleet-stats") rc = cmd_fleet_stats(args);
      else if (command == "nist") rc = cmd_nist(args);
      else if (command == "registry-append") rc = cmd_registry_append(args);
      else if (command == "registry-build") rc = cmd_registry_build(args);
      else if (command == "registry-compact") rc = cmd_registry_compact(args);
      else if (command == "registry-epochs") rc = cmd_registry_epochs(args);
      else if (command == "registry-stats") rc = cmd_registry_stats(args);
      else if (command == "respond") rc = cmd_respond(args);
      else if (command == "stats") rc = cmd_stats(args);
      else return usage();
    }
    obs_session.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

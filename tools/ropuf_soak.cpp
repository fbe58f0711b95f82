// ropuf_soak — closed-loop attack soak harness (see docs/attack_soak.md).
//
// Drives the real serving stack (ropuf_serve's AuthServer, bound to an
// ephemeral loopback port in-process) with mixed traffic: legitimate
// pipelined provers re-measuring their minted silicon while the operating
// corner walks the F4/F5 voltage/temperature schedule, plus a live
// distance-oracle adversary (src/attack/harvest.h) training a logistic
// clone of one device from whatever the admission layer admits. Prints
// attacker accuracy vs. admitted queries and legitimate availability.
//
//   ropuf_soak [--devices N] [--stages N] [--pairs P] [--mode case1|case2]
//              [--seed S] [--noise PS]
//              [--bits B] [--max-hd D] [--cache C] [--unknown-cache C]
//              [--rate-burst N --rate-interval T] [--crp-budget N]
//              [--reuse-budget N] [--admission-devices N] [--detector on|off]
//              [--attacker-decoys N]
//              [--slots N] [--burst N] [--probes N] [--checkpoints N]
//              [--eval-challenges N] [--soak-seed S] [--protocol 1|2]
//              [--compare on|off]
//              [--require-defense on|off] [--require-detector on|off]
//              [--shards N] [--threads N]
//              [--metrics-out F.json] [--trace-out F.json]
//
// --compare on runs the identical soak twice — admission as configured,
// then admission disabled — and prints the accuracy gap the defense buys.
// --require-defense on (implies --compare on) exits nonzero unless the
// defended run measurably beats the undefended one while legitimate
// availability stays >= 99% and online/offline digests agree — the CI
// smoke contract.
// --require-detector on runs the soak three ways — detector + admission,
// static admission alone, undefended — and exits nonzero unless the
// detector strictly widens the clone-accuracy gap over static admission at
// >= 99% availability with digest parity, the attacked device escalated,
// and no legitimate prover did. --attacker-decoys N arms the evasive
// low-and-slow harvester for any of these modes. A flag the soak does not
// read is an error, reported before the first soak runs.
#include <cstdio>

#include "cli_common.h"
#include "common/error.h"
#include "soak/soak.h"

namespace {

using namespace ropuf;
using namespace ropuf::cli;

soak::SoakOptions soak_options_from_args(const Args& args) {
  soak::SoakOptions options;
  options.fleet = fleet_spec_from_args(args);
  // A soak-sized fleet by default: big enough to rotate legit traffic,
  // small enough that a short mode runs in seconds.
  if (!args.has("devices")) options.fleet.devices = 24;
  options.service = auth_options_from_args(args);
  options.slots = static_cast<std::size_t>(u64_arg(args, "slots", 32));
  options.burst_requests = static_cast<std::size_t>(u64_arg(args, "burst", 8));
  options.attacker_probes_per_slot =
      static_cast<std::size_t>(u64_arg(args, "probes", 8));
  options.attacker_decoys =
      static_cast<std::size_t>(u64_arg(args, "attacker-decoys", 0));
  options.checkpoints = static_cast<std::size_t>(u64_arg(args, "checkpoints", 8));
  options.eval_challenges =
      static_cast<std::size_t>(u64_arg(args, "eval-challenges", 64));
  options.readout_noise_ps = args.number("noise", 0.5);
  options.seed = u64_arg(args, "soak-seed", 0x50a4);
  options.protocol = protocol_arg(args);
  // Sharded serving must preserve the whole defense contract, so the soak
  // takes the same --shards knob as ropuf_serve. The driver's closed loop
  // (next event waits for the previous answer) keeps the global arrival
  // order deterministic whichever shard owns each connection, and admission
  // slices by device hash — so the report must not change with the shard
  // count. Connections are dealt to shards round-robin, so their placement
  // is deterministic too.
  options.server.shards = static_cast<std::size_t>(u64_arg(args, "shards", 1));
  ROPUF_REQUIRE(options.server.shards > 0, "--shards must be positive");
  options.service.admission_shards = options.server.shards;
  return options;
}

void print_report(const char* label, const soak::SoakReport& report) {
  std::printf("%s:\n", label);
  std::printf("  legit requests     %zu (answered %zu, denied %zu, accepted %zu)\n",
              report.legit_requests, report.legit_answered, report.legit_denied,
              report.legit_accepted);
  std::printf("  availability       %.4f\n", report.availability);
  std::printf("  digest parity      %s (online 0x%016llx)\n",
              report.digest_parity ? "ok" : "MISMATCH",
              static_cast<unsigned long long>(report.online_digest));
  std::printf("  attacker probes    %zu (admitted %zu, deferred %zu, abandoned %zu)\n",
              report.attacker_probes, report.attacker_admitted,
              report.attacker_deferred, report.attacker_abandoned);
  std::printf("  harvested          %zu bits over %zu challenges\n",
              report.bits_recovered, report.challenges_recovered);
  if (report.attacker_decoys > 0) {
    std::printf("  attacker decoys    %zu\n", report.attacker_decoys);
  }
  if (report.target_suspicion > 0 || report.max_legit_suspicion > 0) {
    std::printf("  suspicion          target level %u, worst legit level %u\n",
                report.target_suspicion, report.max_legit_suspicion);
  }
  if (report.replay_probes > 0) {
    std::printf("  replays rejected   %zu/%zu\n", report.replay_rejected,
                report.replay_probes);
  }
  for (const soak::SoakCheckpoint& checkpoint : report.checkpoints) {
    std::printf("  slot %-4zu admitted %-6zu bits %-5zu accuracy %.4f\n",
                checkpoint.slot, checkpoint.attacker_admitted,
                checkpoint.bits_recovered, checkpoint.clone_accuracy);
  }
  std::printf("  clone accuracy     %.4f\n", report.final_accuracy);
}

int run(const Args& args) {
  const bool require_defense = switch_arg(args, "require-defense", false);
  const bool require_detector = switch_arg(args, "require-detector", false);
  const bool compare = switch_arg(args, "compare", false) || require_defense;

  const soak::SoakOptions defended = soak_options_from_args(args);
  args.reject_unread();
  std::printf("soak: %zu devices, %zu slots x (%zu probes + %zu legit), "
              "protocol v%u, admission %s, detector %s\n",
              defended.fleet.devices, defended.slots,
              defended.attacker_probes_per_slot, defended.burst_requests,
              defended.protocol,
              defended.service.admission.enabled() ? "on" : "off",
              defended.service.detector.enabled ? "on" : "off");

  if (require_detector) {
    // The detector contract is a three-way comparison: the detector must
    // widen the defended-vs-undefended clone-accuracy gap *beyond* what the
    // same static admission knobs buy alone, at equal (>= 99%) legitimate
    // availability — adaptive escalation has to pay for itself.
    ROPUF_REQUIRE(defended.protocol == net::kWireVersion,
                  "--require-detector is a v1 (CRP wire) contract; v2 has no "
                  "distance oracle to detect");
    ROPUF_REQUIRE(defended.service.admission.enabled(),
                  "--require-detector needs admission knobs configured");
    ROPUF_REQUIRE(defended.service.detector.enabled,
                  "--require-detector needs --detector on");

    const soak::SoakReport detected = soak::run_soak(defended);
    print_report("detector", detected);

    soak::SoakOptions static_only = defended;
    static_only.service.detector.enabled = false;
    const soak::SoakReport statics = soak::run_soak(static_only);
    print_report("static admission", statics);

    soak::SoakOptions undefended = defended;
    undefended.service.admission = service::AdmissionOptions{};
    undefended.service.detector.enabled = false;
    const soak::SoakReport baseline = soak::run_soak(undefended);
    print_report("undefended", baseline);

    const double gap_detector = baseline.final_accuracy - detected.final_accuracy;
    const double gap_static = baseline.final_accuracy - statics.final_accuracy;
    std::printf("defense gaps: detector %.4f vs static %.4f "
                "(undefended %.4f, static %.4f, detector %.4f)\n",
                gap_detector, gap_static, baseline.final_accuracy,
                statics.final_accuracy, detected.final_accuracy);

    ROPUF_REQUIRE(gap_detector > gap_static,
                  "the detector did not widen the clone-accuracy gap beyond "
                  "static admission alone");
    ROPUF_REQUIRE(detected.availability >= 0.99 && statics.availability >= 0.99,
                  "legitimate availability under attack fell below 99%");
    ROPUF_REQUIRE(detected.digest_parity && statics.digest_parity &&
                      baseline.digest_parity,
                  "online/offline verdict digest mismatch");
    ROPUF_REQUIRE(detected.target_suspicion > 0,
                  "the detector never escalated the attacking device");
    ROPUF_REQUIRE(detected.max_legit_suspicion == 0,
                  "a legitimate prover was escalated (false positive)");
    return 0;
  }

  const soak::SoakReport report = soak::run_soak(defended);

  if (defended.protocol == net::kWireVersionV2) {
    // v2's defense is cryptographic, not admission throttling, so there is
    // no defended/undefended pair to compare: the contract is that the
    // harvester never leaves the coin flip, every replayed proof dies, and
    // the legit fleet keeps authenticating.
    print_report("soak", report);
    if (require_defense) {
      ROPUF_REQUIRE(report.final_accuracy <= 0.52,
                    "v2 clone accuracy above chance + 0.02: the wire is "
                    "leaking an oracle");
      ROPUF_REQUIRE(report.replay_probes > 0 &&
                        report.replay_rejected == report.replay_probes,
                    "a replayed proof was not rejected");
      ROPUF_REQUIRE(report.availability >= 0.99,
                    "legitimate availability under attack fell below 99%");
      ROPUF_REQUIRE(report.digest_parity,
                    "online/offline verdict digest mismatch");
    }
    return 0;
  }

  print_report(compare ? "defended" : "soak", report);

  if (!compare) return 0;

  soak::SoakOptions undefended = defended;
  undefended.service.admission = service::AdmissionOptions{};
  const soak::SoakReport baseline = soak::run_soak(undefended);
  print_report("undefended", baseline);

  const double gap = baseline.final_accuracy - report.final_accuracy;
  std::printf("defense gap: %.4f (undefended %.4f -> defended %.4f)\n", gap,
              baseline.final_accuracy, report.final_accuracy);

  if (require_defense) {
    ROPUF_REQUIRE(defended.service.admission.enabled(),
                  "--require-defense needs admission knobs configured");
    ROPUF_REQUIRE(gap >= 0.15,
                  "defense gap below 0.15: admission is not measurably "
                  "slowing the modeling attack");
    ROPUF_REQUIRE(report.availability >= 0.99,
                  "legitimate availability under attack fell below 99%");
    ROPUF_REQUIRE(report.digest_parity && baseline.digest_parity,
                  "online/offline verdict digest mismatch");
  }
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ropuf_soak [--devices N] [--stages N] [--pairs P] [--seed S]\n"
               "                  [--mode case1|case2] [--noise PS] [--bits B]\n"
               "                  [--max-hd D] [--cache C] [--unknown-cache C]\n"
               "                  [--rate-burst N --rate-interval T]\n"
               "                  [--crp-budget N] [--reuse-budget N]\n"
               "                  [--admission-devices N] [--detector on|off]\n"
               "                  [--attacker-decoys N]\n"
               "                  [--slots N] [--burst N] [--probes N]\n"
               "                  [--checkpoints N] [--eval-challenges N]\n"
               "                  [--soak-seed S] [--protocol 1|2] [--compare on|off]\n"
               "                  [--require-defense on|off] [--require-detector on|off]\n"
               "                  [--shards N] [--threads N]\n"
               "                  [--metrics-out F.json] [--trace-out F.json]\n"
               "closed-loop attack soak against the real loopback server;\n"
               "see docs/attack_soak.md. a flag the soak does not read is an\n"
               "error.\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args(argc, argv, 1);
    if (args.has("help")) return usage();
    apply_thread_budget(args);
    const ObsSession obs_session(args);
    const int rc = run(args);
    obs_session.finish();
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

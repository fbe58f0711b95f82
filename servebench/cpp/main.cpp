// servebench: the serving benchmark's native half (servebench/run.py drives
// it). Subcommands:
//
//   mint    --workload W --seed S --out F   mint the workload's fleet
//   load    --workload W --registry F --seed S --port P --server-pid PID
//           --rounds N --closed-seconds T [--open-seconds T] [--echo 0|1]
//   echo    --port-file F                   the transport floor
//   stages  --workload W --registry F --seed S --seconds T --batch B
//           --spans OUT.json                in-process stage tracer
//   idle    (no options)                    SCHED_IDLE spinner, until SIGTERM
#include <sched.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "fixture.h"
#include "registry/registry.h"

namespace servebench {
using ropuf::cli::Args;

int run_load(const Args& args);
int run_echo(const Args& args);
int run_stages(const Args& args);

namespace {

int run_mint(const Args& args) {
  const std::string bytes = ropuf::registry::build_fleet_registry(
      fleet_spec(workload_config(required(args, "workload")),
                 static_cast<std::uint64_t>(required_number(args, "seed"))));
  const std::string path = required(args, "out");
  std::ofstream out(path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.flush()) throw std::runtime_error("cannot write " + path);
  return 0;
}

std::atomic<bool> g_idle_stop{false};

void on_idle_stop(int) { g_idle_stop.store(true, std::memory_order_relaxed); }

/// Keeps one CPU out of the idle state at the lowest priority: any other
/// runnable task preempts it at once. Pinned beside the server and the
/// generator, it spares their wake-ups the hypervisor's resume of a halted
/// virtual CPU, whose delay varies from run to run.
int run_idle() {
  const sched_param param{};
  if (::sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
    std::fprintf(stderr, "servebench idle: SCHED_IDLE unavailable\n");
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = on_idle_stop;
  ::sigaction(SIGTERM, &action, nullptr);
  ::sigaction(SIGINT, &action, nullptr);
  while (!g_idle_stop.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: servebench mint|load|echo|stages --key value ...\n");
    return 64;
  }
  try {
    const std::string command = argv[1];
    const ropuf::cli::Args args(argc, argv, 2);
    if (command == "mint") return servebench::run_mint(args);
    if (command == "load") return servebench::run_load(args);
    if (command == "echo") return servebench::run_echo(args);
    if (command == "stages") return servebench::run_stages(args);
    if (command == "idle") return servebench::run_idle();
    std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
    return 64;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}

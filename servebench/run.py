#!/usr/bin/env python3
"""Serving benchmark: drives the real ropuf_serve over loopback.

    python3 servebench/run.py --workload v1_hot --seed 1 --seconds 55 --trace 0

Run from the root of a ropuf checkout. The first run builds ropuf_serve and
the benchmark's native tool (servebench/cpp) in Release under .bench_build/;
each fleet is minted from the seed by that build and cached per workload,
seed and build. The workload table (fleet sizes, open-loop rates) lives in
servebench/cpp/fixture.cpp. With --trace 0 the run measures the end-to-end
metrics; with --trace 1 it measures the per-layer metrics, prints the stage
table and writes a span file. The last line of stdout is the JSON result.
See servebench/README.md.
"""

import argparse
import ctypes
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "servebench")
FLEETS = os.path.join(ROOT, ".bench_build", "servebench-fleets")
OUT = os.path.join(ROOT, ".bench_build", "servebench-out")
SERVE = os.path.join(BUILD, "ropuf", "tools", "ropuf_serve")
TOOL = os.path.join(BUILD, "servebench")

WORKLOADS = ("v1_hot", "v1_cold", "v2_proof")
SETUP_SPAWNS = 15       # server spawns per run; setup_s is their median
# Admission and the detector stay off; everything else is ropuf_serve's
# shipped default.
SERVER_ARGS = ["--shards", "1", "--threads", "1"]
# The server and the generator each get a CPU of their own, the same ones on
# every run, so the scheduler's placement does not vary between runs.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPU = {_CPUS[-1]}
CLIENT_CPU = {_CPUS[-2]} if len(_CPUS) > 1 else SERVER_CPU


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def pinned(cpus):
    """Child set-up: its CPUs, and SIGTERM should this process die first, so
    no server or spinner outlives a killed run."""
    def setup():
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
        if cpus:
            os.sched_setaffinity(0, cpus)
    return setup


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(cmd, timeout, capture=True, cpus=None):
    done = subprocess.run(cmd, cwd=ROOT, timeout=timeout, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr,
                          stderr=sys.stderr, preexec_fn=pinned(cpus))
    if done.returncode != 0:
        raise RuntimeError("%s exited with %d" % (os.path.basename(cmd[0]), done.returncode))
    return done.stdout


def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise RuntimeError("no ropuf source tree around servebench/")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                    300, capture=False)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", BUILD, "--target", "ropuf_serve", "servebench",
                 "-j", jobs], 580, capture=False)


def file_digest(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()[:16]


def fleet(workload, seed):
    """The workload's registry, minted from the seed by this build's tool.

    The cache key holds the tool's digest, so a registry written by another
    build (or another commit's format) is never served."""
    os.makedirs(FLEETS, exist_ok=True)
    path = os.path.join(FLEETS, "fleet-%s-seed%d-%s.ropuf" % (workload, seed, file_digest(TOOL)))
    if not os.path.exists(path):
        tmp = path + ".tmp"
        run_checked([TOOL, "mint", "--workload", workload, "--seed", str(seed), "--out", tmp], 170)
        os.replace(tmp, path)
    return path


class Server:
    """One ropuf_serve (or echo floor) process; always stopped on exit."""

    def __init__(self, cmd, tag):
        self.port_file = os.path.join(OUT, "port-%s-%d" % (tag, os.getpid()))
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd + ["--port-file", self.port_file], cwd=ROOT,
                                     stdout=subprocess.DEVNULL, stderr=sys.stderr,
                                     preexec_fn=pinned(SERVER_CPU))
        try:
            while True:
                if os.path.exists(self.port_file):
                    with open(self.port_file) as f:
                        text = f.read()
                    if text.endswith("\n"):
                        break
                if self.proc.poll() is not None:
                    raise RuntimeError("server exited before listening")
                if time.perf_counter() - start > 60:
                    raise RuntimeError("server did not start listening")
                time.sleep(0.0002)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.setup_s = time.perf_counter() - start
        self.port = int(text)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if os.path.exists(self.port_file):
            os.remove(self.port_file)
        return self.proc.returncode


class IdleSpinners:
    """SCHED_IDLE spinners on the server's and the generator's CPUs for the
    duration of a run (see `servebench idle`)."""

    def __enter__(self):
        self.procs = [subprocess.Popen([TOOL, "idle"], cwd=ROOT, preexec_fn=pinned(cpus))
                      for cpus in (SERVER_CPU, CLIENT_CPU)]
        return self

    def __exit__(self, *exc):
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        return False


def serve_cmd(registry, extra=()):
    return [SERVE, "--registry", registry] + SERVER_ARGS + list(extra)


def drive(server, workload, registry, seed, rounds, closed_s, open_s, echo=False):
    cmd = [TOOL, "load", "--workload", workload, "--registry", registry, "--seed", str(seed),
           "--port", str(server.port), "--server-pid", str(server.proc.pid),
           "--rounds", str(rounds), "--closed-seconds", repr(closed_s),
           "--open-seconds", repr(open_s), "--echo", "1" if echo else "0"]
    done = subprocess.run(cmd, cwd=ROOT, timeout=170, text=True, stdout=subprocess.PIPE,
                          stderr=sys.stderr, preexec_fn=pinned(CLIENT_CPU))
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("load generator printed nothing (exit %d)" % done.returncode)
    result = json.loads(lines[-1])
    # A whole run: every round measured, server CPU read, and the generator
    # agrees (it exits nonzero on any failed request or cut-short run).
    result["complete"] = (done.returncode == 0 and result["failed"] == 0 and
                          result["slices"] == rounds and result["closed_completed"] > 0 and
                          result["closed_server_cpu_s"] > 0)
    return result


def served_run(workload, registry, seed, rounds, closed_s, open_s, extra=()):
    """Spawns a server, drives it, stops it; returns the generator's result."""
    server = Server(serve_cmd(registry, extra), workload)
    try:
        result = drive(server, workload, registry, seed, rounds, closed_s, open_s)
        result["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        raise RuntimeError("ropuf_serve exited with %d" % code)
    return result


def rounds_for(seconds):
    """Two closed+open rounds per second of run time, at least eight."""
    return max(8, int(round(2 * seconds)))


def setup_s(registry, workload, spawns):
    """Seconds from spawning ropuf_serve until it accepts connections."""
    samples = []
    for _ in range(spawns):
        server = Server(serve_cmd(registry), workload)
        samples.append(server.setup_s)
        if server.stop() != 0:
            raise RuntimeError("ropuf_serve exited uncleanly")
    return samples


def health(result, name):
    """Generator health: CPU share in the closed loop, lateness in the open one."""
    share = result["closed_gen_cpu_s"] / result["closed_wall_s"]
    if share > 0.9:
        log("WARNING: %s generator saturated (cpu share %.2f): it, not the server, "
            "may set the closed-loop rate" % (name, share))
    if result["open_completed"] and result["late_p99_us"] > 100.0:
        log("WARNING: %s generator sent late (p99 %.0f us behind schedule)"
            % (name, result["late_p99_us"]))
    return share


def end_to_end(workload, registry, seed, seconds):
    # Set-up is sampled before and after the load, so a slow spell of the
    # host at either end moves the median less.
    setups = setup_s(registry, workload, SETUP_SPAWNS // 2)
    with IdleSpinners():
        result = served_run(workload, registry, seed, rounds_for(seconds),
                            0.6 * seconds, 0.4 * seconds)
    setups += setup_s(registry, workload, SETUP_SPAWNS - SETUP_SPAWNS // 2)
    health(result, workload)
    log("%s seed %d (fleet of %d devices minted from it): closed loop %d answers in "
        "%.2f s, open loop %d at %.0f/s, %d slices; latency p99 %.1f us, max %.1f us over "
        "%d samples; generator cpu share %.2f, late p99 %.1f us" % (
            workload, seed, result["devices"], result["closed_completed"],
            result["closed_wall_s"], result["open_completed"], result["open_rate"],
            result["slices"], result["latency_p99_us"], result["latency_max_us"],
            result["latency_samples"], result["closed_gen_cpu_s"] / result["closed_wall_s"],
            result["late_p99_us"]))
    metrics = {
        "throughput_rps": (result["throughput_rps"], "1/s"),
        "server_cpu_us_per_req": (result["server_cpu_us_per_req"], "us"),
        "latency_p50_us": (result["latency_p50_us"], "us"),
        "latency_p90_us": (result["latency_p90_us"], "us"),
        "setup_s": (statistics.median(setups), "s"),
        "server_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    return result, metrics


def metrics_counters(path):
    with open(path) as f:
        return json.load(f)["counters"]


def stage_table(workload, seed, stages, server_cpu_us, echo_cpu_us, batch_mean):
    """Prints the stage table and returns the reactor remainder: the stages
    plus the remainder sum to the server's CPU per request."""
    v2 = workload.startswith("v2")
    frames = 2 if v2 else 1
    misses, decodes = stages["cache_misses_per_req"], stages["decodes_per_req"]
    compares = stages["compares_per_req"]
    outer = [("net.extract", frames), ("net.decode", frames)] + ([("auth.nonce", 1)] if v2 else [])
    inner = [("registry.pin", 1 if v2 else 1.0 / batch_mean), ("service.cache_get", 1),
             ("registry.search", misses), ("registry.decode", decodes),
             ("auth.derive_key", decodes)]
    inner += ([("auth.verify_tag", compares)] if v2 else
              [("puf.reference", compares), ("common.hamming", compares)])
    us = lambda name, calls: calls * stages[name + "_ns"] / 1000.0
    verify_name = "service.verify_proof" if v2 else "service.verify_batch"
    verify_us = stages["service.verify_ns" if v2 else "service.verify_batch_ns_per_req"] / 1000.0
    in_process = (sum(us(name, calls) for name, calls in outer) + verify_us +
                  us("net.encode", frames))
    reactor = server_cpu_us - in_process

    row = "  %-34s %10s %10.4f"
    print("stage table: %s, seed %d, %d devices (us of server CPU per %s)"
          % (workload, seed, stages["devices"], "authentication" if v2 else "request"))
    print("  %-34s %10s %10s" % ("stage", "calls/req", "us/req"))
    for name, calls in outer:
        print(row % (name, "%.4f" % calls, us(name, calls)))
    print(row % (verify_name, "1.0000", verify_us))
    for name, calls in inner:
        print(row % ("  " + name, "%.4f" % calls, us(name, calls)))
    print(row % ("  service.glue (remainder)", "",
                 verify_us - sum(us(name, calls) for name, calls in inner)))
    print(row % ("net.encode", "%.4f" % frames, us("net.encode", frames)))
    print(row % ("sum of in-process stages", "", in_process))
    print(row % ("net.reactor_us_per_req (remainder)", "", reactor))
    print(row % ("  net.echo_cpu_us_per_req (kernel)", "", echo_cpu_us))
    print(row % ("  reactor overhead beyond echo", "", reactor - echo_cpu_us))
    print(row % ("= server_cpu_us_per_req", "", server_cpu_us))
    return reactor


def per_layer(workload, registry, seed, seconds):
    """Counted run, stage replay and echo floor, bracketed in time by two
    plain (metrics-off) runs whose pooled CPU per request anchors the stage
    table, so host drift between the server runs and the in-process replay
    cancels to first order."""
    rounds = rounds_for(0.2 * seconds)
    metrics_file = os.path.join(OUT, "metrics-%s-%d.json" % (workload, os.getpid()))
    span_file = os.path.join(OUT, "spans-%s-seed%d.json" % (workload, seed))
    with IdleSpinners():
        before = served_run(workload, registry, seed, rounds, 0.125 * seconds,
                            0.075 * seconds)
        counted = served_run(workload, registry, seed, rounds, 0.2 * seconds, 0.0,
                             extra=["--metrics-out", metrics_file])
    counters = metrics_counters(metrics_file)
    os.remove(metrics_file)
    batch_mean = (counters["service.batch_items"] / counters["service.batches"]
                  if counters.get("service.batches") else 1.0)
    stages = json.loads(run_checked(
        [TOOL, "stages", "--workload", workload, "--registry", registry, "--seed", str(seed),
         "--seconds", repr(0.2 * seconds), "--batch", repr(round(batch_mean)),
         "--spans", span_file], 170, cpus=SERVER_CPU).strip().splitlines()[-1])
    with IdleSpinners():
        echo_server = Server([TOOL, "echo"], "echo")
        try:
            echo = drive(echo_server, workload, registry, seed, rounds, 0.15 * seconds, 0.0,
                         echo=True)
        finally:
            echo_server.stop()
        after = served_run(workload, registry, seed, rounds, 0.125 * seconds,
                           0.075 * seconds)
    health(echo, workload + " echo")

    requests = counters.get("service.requests", 0) + counters.get("service.proof_requests", 0)
    hits = counters.get("service.cache_hits", 0)
    misses = counters.get("service.cache_misses", 0)
    server_cpu = ((before["closed_server_cpu_s"] + after["closed_server_cpu_s"]) * 1e6 /
                  (before["closed_completed"] + after["closed_completed"]))
    echo_cpu = echo["server_cpu_us_per_req"]
    reactor = stage_table(workload, seed, stages, server_cpu, echo_cpu, batch_mean)
    print("span file: %s" % os.path.relpath(span_file, ROOT))

    metrics = {
        "net.extract_ns": (stages["net.extract_ns"], "ns"),
        "net.decode_ns": (stages["net.decode_ns"], "ns"),
        "net.encode_ns": (stages["net.encode_ns"], "ns"),
        "net.reactor_us_per_req": (reactor, "us"),
        "net.echo_cpu_us_per_req": (echo_cpu, "us"),
        "net.batch_size_mean": (batch_mean, "count"),
        "net.overloads": (counters.get("net.overload_rejections", 0), "count"),
        "registry.pin_ns": (stages["registry.pin_ns"], "ns"),
        "registry.search_ns": (stages["registry.search_ns"], "ns"),
        "registry.decode_ns": (stages["registry.decode_ns"], "ns"),
        "registry.decodes_per_req": (counters.get("registry.records_decoded", 0) / requests,
                                     "count"),
        "registry.load_ms": (stages["registry.load_ms"], "ms"),
        "service.cache_get_ns": (stages["service.cache_get_ns"], "ns"),
        "service.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "auth.derive_key_ns": (stages["auth.derive_key_ns"], "ns"),
        "puf.reference_ns": (stages["puf.reference_ns"], "ns"),
        "common.hamming_ns": (stages["common.hamming_ns"], "ns"),
        "service.verify_ns": (stages["service.verify_ns"], "ns"),
        "service.verify_batch_ns_per_req": (stages["service.verify_batch_ns_per_req"], "ns"),
        "auth.nonce_ns": (stages["auth.nonce_ns"], "ns"),
        "auth.verify_tag_ns": (stages["auth.verify_tag_ns"], "ns"),
        "auth.prove_ns": (stages["auth.prove_ns"], "ns"),
        "service.admit_ns": (stages["service.admit_ns"], "ns"),
        "service.detect_ns": (stages["service.detect_ns"], "ns"),
        "obs.metrics_overhead_pct": ((counted["server_cpu_us_per_req"] / server_cpu - 1.0) * 100.0,
                                     "%"),
        "gen.cpu_share": (max(health(before, workload), health(after, workload)), "ratio"),
        "gen.late_us_p99": (max(before["late_p99_us"], after["late_p99_us"]), "us"),
    }
    failed = before["failed"] + counted["failed"] + after["failed"]
    attempted = before["attempted"] + counted["attempted"] + after["attempted"]
    correct = (all(run["complete"] for run in (before, counted, echo, after)) and
               counters.get("net.overload_rejections", 0) == 0)
    return attempted, failed, correct, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    os.makedirs(OUT, exist_ok=True)
    registry = fleet(args.workload, args.seed)
    if args.trace:
        attempted, failed, correct, metrics = per_layer(args.workload, registry, args.seed,
                                                        args.seconds)
    else:
        result, metrics = end_to_end(args.workload, registry, args.seed, args.seconds)
        attempted, failed, correct = result["attempted"], result["failed"], result["complete"]
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def on_terminate(signum, frame):
    raise SystemExit(1)  # unwinds through the finally blocks that stop children


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, on_terminate)
    try:
        sys.exit(main())
    except Exception as error:  # any failure: no result line, nonzero exit
        log("servebench: %s" % error)
        sys.exit(1)

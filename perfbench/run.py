#!/usr/bin/env python3
"""Repo benchmark: TATP and TPC-C on the simulated FaRM cluster.

Run from the repository root:

    python3 perfbench/run.py --workload tatp --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  tatp           12 machines, 30k subscribers, standard TATP mix, 2x8 clients
  tpcc           12 machines, 24 co-partitioned warehouses, full mix, 2x4
  tpcc_failover  9 machines, 9 warehouses, 2x4; a warehouse primary is killed
                 50 ms into the window, clients run 100 ms past the kill, and
                 re-replication then finishes without clients (a fixed
                 scenario: --seconds does not change it)

The script builds perfbench/ (which compiles ../src) as a Release build in
$CARGO_TARGET_DIR (default .bench_build) and runs the farm_perfbench binary.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics and
--trace 1 the per-layer metrics (and writes Chrome-trace spans to
<build dir>/spans/). The metric set is checked against BENCHMARK.json; the
layer, target metric and workload of each per-layer metric are in
perfbench/layers.json.

  host_tx_per_s  committed transactions per host second, with each measured
                 chunk's host seconds scaled to a reference host speed timed
                 right after it (see SpeedReference in bench.cc); the raw
                 rate is printed on the host_speed line before the result
  attempted  transactions the closed-loop clients finished in the window
  failed     failed correctness checks plus transactions whose outcome the
             system could not resolve; OCC aborts are normal outcomes and
             are reported by failed_ratio instead

Exit status is 0 only if the build succeeded and every correctness check
passed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(bdir):
    """Configures (once) and builds farm_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no FaRM sources under {ROOT}/src")
    cache = os.path.join(bdir, "CMakeCache.txt")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "farm_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(bdir, "farm_perfbench")


def declared_metrics(trace):
    """(name -> unit) from BENCHMARK.json for this mode, or None if absent."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(result, trace):
    keys = {"correct", "attempted", "failed", "metrics"}
    if set(result) != keys:
        return f"result keys {sorted(result)} != {sorted(keys)}"
    declared = declared_metrics(trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            missing = sorted(set(declared) - set(got))
            extra = sorted(set(got) - set(declared))
            wrong = sorted(k for k in set(got) & set(declared) if got[k] != declared[k])
            return f"metric set differs: missing={missing} extra={extra} unit={wrong}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["tatp", "tpcc", "tpcc_failover"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "small"], default="full",
                    help="small runs tiny clusters (self-test only)")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    if args.trace:
        spans = os.path.join(bdir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1

    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"no output (exit {proc.returncode})")
        return 1
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"last line is not JSON: {lines[-1]!r}")
        return 1
    problem = check_result(result, args.trace)
    if problem:
        log(problem)
        return 1
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        log(f"correctness checks failed (exit {proc.returncode})")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

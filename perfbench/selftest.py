#!/usr/bin/env python3
"""Self-test of the repo benchmark, at a small size.

    python3 perfbench/selftest.py

For every workload it runs perfbench/run.py with --size small, untraced and
traced, twice with one seed and once with another, and checks that:
  * the two same-seed runs give identical simulated metrics (sim_*,
    failed_ratio) and identical per-layer counts;
  * the other seed changes them, so the seed reaches the program;
  * every run passes its correctness checks.
It also checks that BENCHMARK.json lists exactly the per-layer metrics of
perfbench/layers.json. Exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["tatp", "tpcc", "tpcc_failover"]
SEED_A, SEED_B = 3, 4

# Metrics timed on the host (or derived from host time): they vary run to run.
HOST_TIMED = {"peak_rss_mb", "host_tx_per_s", "setup_s", "sim.queue_ns_per_event",
              "trace.overhead_frac"}


def deterministic(name, unit):
    return not (name in HOST_TIMED or "host" in name or unit == "s" or name.startswith("ds."))


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "small"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise AssertionError(f"{' '.join(cmd[1:])}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()
            if deterministic(k, v["unit"])}


def check_layer_map():
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["layers"]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    mapped = [{"name": n, "unit": u, "better": b} for layer in layers
              for n, u, b in layer["metrics"]]
    if mapped != bench["per_layer"]:
        raise AssertionError("BENCHMARK.json per_layer differs from perfbench/layers.json")


def main():
    failures = []
    try:
        check_layer_map()
    except AssertionError as e:
        failures.append(str(e))
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            try:
                a1 = run(workload, SEED_A, trace)
                a2 = run(workload, SEED_A, trace)
                b = run(workload, SEED_B, trace)
            except AssertionError as e:
                failures.append(f"{label}: {e}")
                continue
            differing = sorted(k for k in a1 if a1[k] != a2.get(k))
            if differing:
                failures.append(f"{label}: same seed, different values: {differing}")
            if a1 == b:
                failures.append(f"{label}: seeds {SEED_A} and {SEED_B} gave identical results")
            if trace == 0 and any(a1[k] == b[k] for k in a1 if k.startswith("sim_")):
                failures.append(f"{label}: a sim_* metric ignores the seed")
            print(f"{label}: {len(a1)} deterministic metrics checked", flush=True)
    for f in failures:
        print(f"FAIL {f}", file=sys.stderr)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

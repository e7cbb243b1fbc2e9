#!/usr/bin/env python3
"""End-to-end perf baseline for the runner benches: BENCH_e2e.json.

Runs every runner bench at --jobs=1 and default scale, reads the runner's
stderr summary line ("[runner] N cells on 1 worker: wall Ws (cells sum
Cs, max Ms), sim Ss") and reduces each bench to:

  cells             cells in its matrices (a count, not a timing)
  wall_s            host wall time of the bench's runner matrices
  cells_sum_s       host time summed over its cells
  sim_s_per_wall_s  simulated seconds per host second (higher is better)

A bench that runs several matrices prints one summary line each; they are
summed. --jobs=1 keeps the numbers comparable across hosts with different
core counts. Only wall_s is gated: the simulated seconds are deterministic
and at --jobs=1 cells-sum tracks the wall, so the other two timings are
kept for reading, not for a second verdict on the same measurement.

    scripts/e2e_perf.py record BUILD_DIR BENCH_e2e.json
        build the benches in the configured Release tree BUILD_DIR, run
        each RECORD_RUNS times and write the per-field medians
    scripts/e2e_perf.py gate BUILD_DIR BENCH_e2e.json FRESH.json
        run each bench once, write FRESH.json in baseline format, and
        exit 1 when a bench's wall grows past TOLERANCE x its baseline or
        its cell count differs from the baseline's

scripts/perf_baseline.sh calls `record`; scripts/check.sh --perf-only
calls `gate` after the BENCH_core.json half, which already refuses a
build tree of the wrong type. docs/PERF.md documents the policy.
"""

import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

# (bench, extra args). Default scale unless the bench's default is a long
# sweep, in which case its CI smoke size is the tracked shape.
BENCHES = [
    ("bench_ablation_memory", []),
    ("bench_ablation_replication", []),
    ("bench_chaos_sweep", ["--smoke"]),
    ("bench_fault_matrix", []),
    ("bench_fig5_throughput", []),
    ("bench_fig6_elasticity", []),
    ("bench_fig7_failover_timeline", []),
    ("bench_fig8_buffersize", []),
    ("bench_fig9_comparison", []),
    ("bench_lagtime", []),
    ("bench_latency_breakdown", []),
    ("bench_runner_demo", []),
    ("bench_saturation", []),
    ("bench_table5_pscore", []),
    ("bench_table6_scaling", []),
    ("bench_table7_multitenancy", []),
    ("bench_table8_failover", []),
    ("bench_table9_overall", []),
]

SUMMARY = re.compile(
    r"\[runner\] (\d+) cells on \d+ workers?: wall ([0-9.]+)s "
    r"\(cells sum ([0-9.]+)s, max [0-9.]+s\), sim ([0-9.]+)s")

# A bench fails when its wall grows past this factor of the baseline:
# wide enough for shared, heterogeneous hosts, so it catches algorithmic
# regressions rather than drift.
TOLERANCE = 2.0
# The baseline is the median of this many runs per bench.
RECORD_RUNS = 3


def build_type(build_dir):
    cache = Path(build_dir) / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1].lower() or "unknown"
    return "unknown"


def run_once(binary, name, args, build_dir):
    # Run inside the build tree so nothing a bench writes lands in the
    # checkout.
    proc = subprocess.run([str(binary), "--jobs=1"] + args,
                          cwd=build_dir, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True)
    lines = SUMMARY.findall(proc.stderr)
    if proc.returncode != 0 or not lines:
        sys.exit(f"ERROR: [perf-e2e] {name} failed (exit "
                 f"{proc.returncode}) or printed no runner summary:\n"
                 f"{proc.stderr[-2000:]}")
    wall = sum(float(w) for _, w, _, _ in lines)
    sim = sum(float(s) for _, _, _, s in lines)
    return {
        "cells": sum(int(c) for c, _, _, _ in lines),
        "wall_s": wall,
        "cells_sum_s": sum(float(s) for _, _, s, _ in lines),
        "sim_s_per_wall_s": sim / wall if wall > 0 else 0.0,
    }


def measure(build_dir, runs):
    """Builds the benches in BUILD_DIR (an already configured tree), then
    runs each `runs` times and keeps the median of every timing."""
    subprocess.run(["cmake", "--build", build_dir, "-j",
                    str(os.cpu_count() or 1), "--target"] +
                   [name for name, _ in BENCHES], check=True,
                   stdout=subprocess.DEVNULL)
    benches = {}
    for name, args in BENCHES:
        binary = Path(build_dir).resolve() / "bench" / name
        samples = [run_once(binary, name, args, build_dir)
                   for _ in range(runs)]
        benches[name] = {"cells": samples[0]["cells"]}
        for key in ("wall_s", "cells_sum_s", "sim_s_per_wall_s"):
            benches[name][key] = round(
                statistics.median(s[key] for s in samples), 2)
        print(f"[perf-e2e] {name}: {benches[name]}", flush=True)
    return {
        "schema": "cloudybench-e2e-baseline-v1",
        "source": "runner bench summary lines at --jobs=1 via "
                  "scripts/e2e_perf.py",
        "context": {"num_cpus": os.cpu_count(),
                    "build_type": build_type(build_dir), "jobs": 1,
                    "runs": runs},
        "benches": benches,
    }


def write(path, data):
    with open(path, "w") as f:
        json.dump(data, f, indent=2)
        f.write("\n")


def cmd_record(build_dir, out_path):
    fresh = measure(build_dir, RECORD_RUNS)
    write(out_path, fresh)
    print(f"wrote {out_path} ({len(fresh['benches'])} benches, "
          f"build_type={fresh['context']['build_type']})")
    return 0


def cmd_gate(build_dir, base_path, fresh_path):
    with open(base_path) as f:
        base = json.load(f)["benches"]
    fresh = measure(build_dir, 1)
    write(fresh_path, fresh)

    failures = 0
    for name, want in sorted(base.items()):
        got = fresh["benches"].get(name)
        if got is None:
            print(f"ERROR: [perf-e2e] {name} in baseline but not measured")
        elif got["cells"] != want["cells"]:
            print(f"ERROR: [perf-e2e] {name} ran {got['cells']} cells, the "
                  f"baseline {want['cells']}: its matrix changed, so "
                  "re-record the baseline with scripts/perf_baseline.sh")
        elif got["wall_s"] > TOLERANCE * want["wall_s"]:
            print(f"FAIL: [perf-e2e] {name} wall_s: {got['wall_s']} vs "
                  f"baseline {want['wall_s']} (tolerance {TOLERANCE:.2f}x)")
        else:
            continue
        failures += 1
    if failures:
        print(f"[perf-e2e] GATE FAILED: {failures} bench(es) out of band; "
              f"fresh numbers were written to {fresh_path}.")
        return 1
    print(f"[perf-e2e] all {len(base)} benches within {TOLERANCE:.2f}x of "
          "their baseline wall")
    return 0


def main(argv):
    if len(argv) == 3 and argv[0] == "record":
        return cmd_record(argv[1], argv[2])
    if len(argv) == 4 and argv[0] == "gate":
        return cmd_gate(argv[1], argv[2], argv[3])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

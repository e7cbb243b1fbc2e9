#!/usr/bin/env python3
"""End-to-end testbed benchmark driver.

Builds the benchmark binary from source (CMake, Release) and runs one
workload:

    python3 e2ebench/run.py --workload deploy_sf100 --seed 1 --seconds 30 \
        --trace 0

The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it carries the
run's provenance. Run from the root of a checkout. Other entry points:

    python3 e2ebench/run.py self-test
    python3 e2ebench/run.py compare A.result.json B.result.json
    python3 e2ebench/run.py record --workload NAME --seeds 1,2

Build trees go to $CARGO_TARGET_DIR (default .bench_build) and run
artifacts (result files, spans, self-time folds) to .bench_out/e2ebench.
See README.md in this directory.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("deploy_sf100", "closed_sf1_latest", "open_sf10_ro")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "e2ebench"


def out_dir():
    path = ROOT / ".bench_out" / "e2ebench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def build():
    """Configures and builds the binary; returns its path or None."""
    bdir = build_dir()
    cache = bdir / "CMakeCache.txt"
    if cache.exists() and (f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}\n"
                           not in cache.read_text()):
        # A build tree configured from another checkout: CMake refuses to
        # reuse it, so start over.
        shutil.rmtree(bdir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "--target", "e2ebench", "-j", jobs],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if proc.returncode != 0:
            log("e2ebench: build step failed:", " ".join(cmd))
            return None
    binary = bdir / "e2ebench"
    return binary if binary.exists() else None


def git_describe():
    if not (ROOT / ".git").exists():
        return ""
    proc = subprocess.run(["git", "-C", str(ROOT), "describe", "--always",
                           "--dirty", "--tags"], capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else ""


def run_binary(binary, args):
    """Runs the binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([str(binary)] + args, cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    return proc.returncode, proc.stdout.splitlines()


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def expected_file(workload):
    return BENCH_DIR / "expected" / f"{workload}.tsv"


def bench_args(workload, seed, seconds, trace, extra=()):
    return ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", str(trace), "--out", str(out_dir()),
            "--git-describe", git_describe()] + list(extra)


def cmd_run(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args(argv)
    binary = build()
    if binary is None:
        return 1
    code, lines = run_binary(binary, bench_args(
        a.workload, a.seed, a.seconds, a.trace,
        ["--expected", str(expected_file(a.workload))]))
    if code != 0 or parse_result(lines) is None:
        log(f"e2ebench: run failed (exit {code})")
        return code or 1
    print("\n".join(lines), flush=True)
    return 0


def cmd_compare(argv):
    """Compares two result files; refuses to compare across build types."""
    p = argparse.ArgumentParser(description="Compare two result files.")
    p.add_argument("base")
    p.add_argument("new")
    a = p.parse_args(argv)
    base = json.loads(Path(a.base).read_text())
    new = json.loads(Path(a.new).read_text())
    for key in ("build_type", "ndebug", "workload", "size", "trace"):
        if base["provenance"].get(key) != new["provenance"].get(key):
            log(f"e2ebench: refusing to compare: {key} differs "
                f"({base['provenance'].get(key)!r} vs "
                f"{new['provenance'].get(key)!r})")
            return 2
    for name in sorted(set(base["metrics"]) & set(new["metrics"])):
        b, n = base["metrics"][name], new["metrics"][name]
        change = f"{(n - b) / b:+.1%}" if b else "n/a"
        print(f"{name:32s} {b:16.6g} {n:16.6g} {change:>8s}")
    return 0


def cmd_record(argv):
    """Appends expected rows for the given seeds to expected/<workload>.tsv."""
    p = argparse.ArgumentParser(description="Record expected result rows.")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    a = p.parse_args(argv)
    binary = build()
    if binary is None:
        return 1
    path = expected_file(a.workload)
    path.parent.mkdir(exist_ok=True)
    for seed in a.seeds.split(","):
        code, _ = run_binary(binary, bench_args(
            a.workload, seed, 0, 0, ["--record", str(path)]))
        if code != 0:
            return code
    return 0


def rows_of(path):
    """Rows of a --record file with the cell id (which names the seed)
    dropped, so two seeds compare on their measured values only."""
    rows = []
    for line in path.read_text().splitlines():
        row = json.loads(line.split("\t", 1)[1])
        row.pop("cell")
        rows.append(row)
    return rows


def cmd_self_test(argv):
    """Checks the benchmark itself (README.md, "Self-test")."""
    argparse.ArgumentParser(description="Benchmark self-test.").parse_args(
        argv)
    binary = build()
    if binary is None:
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    tmp = out_dir() / "self-test"
    tmp.mkdir(exist_ok=True)
    failures = []

    def check(ok, what):
        log(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    def small(workload, seed, trace, extra=()):
        code, lines = run_binary(binary, bench_args(
            workload, seed, 0, trace, ["--small"] + list(extra)))
        return code, parse_result(lines)

    def record(workload, seed, name, extra=()):
        path = tmp / name
        path.unlink(missing_ok=True)
        small(workload, seed, 0, ["--record", str(path)] + list(extra))
        return path

    # Every metric named in BENCHMARK.json, with its unit, on every workload.
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = small(workload, 1, trace)
            got = {} if result is None else {
                k: v.get("unit") for k, v in result["metrics"].items()}
            check(code == 0 and result is not None and result["correct"]
                  and got == want[trace],
                  f"{workload} trace={trace} prints every metric with its "
                  f"unit and is correct")

    # A perturbed expected row is reported as a failed cell.
    rows = record("deploy_sf100", 1, "rows.tsv")
    lines = rows.read_text().splitlines()
    lines[0] = lines[0].replace('"ok":true', '"ok":true,"perturbed":1', 1)
    perturbed = tmp / "perturbed.tsv"
    perturbed.write_text("\n".join(lines) + "\n")
    code, result = small("deploy_sf100", 1, 0,
                         ["--expected", str(perturbed)])
    check(code == 0 and result is not None and not result["correct"]
          and result["failed"] >= 1,
          "a perturbed expected row is reported as a failed cell")

    # A different seed changes the rows.
    other = record("deploy_sf100", 2, "rows-seed2.tsv")
    check(rows_of(rows) != rows_of(other), "a different seed changes rows")

    # The rows do not depend on the worker count: one worker reproduces the
    # rows recorded at two.
    code, lines = run_binary(binary, bench_args(
        "deploy_sf100", 1, 0, 0,
        ["--jobs", "1", "--expected", str(expected_file("deploy_sf100"))]))
    result = parse_result(lines)
    check(code == 0 and result is not None and result["correct"],
          "deploy_sf100 rows at 1 worker equal the rows recorded at 2")

    # The benchmark's OLTP cell function matches runner::RunOltpCell.
    for workload in ("deploy_sf100", "closed_sf1_latest"):
        code, _ = run_binary(binary, ["--workload", workload, "--small",
                                      "--check-equivalence"])
        check(code == 0, f"{workload} cell rows equal runner::RunOltpCell's")

    # At full size, one traced pass shows each workload stressing the layers
    # it was chosen for (per-cell counters from the traced run).
    cells = {}
    for workload in WORKLOADS:
        code, lines = run_binary(binary, bench_args(
            workload, 1, 0, 1, ["--expected", str(expected_file(workload))]))
        result = parse_result(lines)
        check(code == 0 and result is not None and result["correct"],
              f"{workload} full size traced run is correct")
        path = out_dir() / f"{workload}-seed1.layers.jsonl"
        cells[workload] = [json.loads(line)
                           for line in path.read_text().splitlines()]

    def total(workload, key):
        return sum(cell.get(key, 0) for cell in cells[workload])

    setup, cell_sum = total("deploy_sf100", "deploy_ms"), total(
        "deploy_sf100", "cell_ms")
    check(total("deploy_sf100", "cloud.prewarm_ms") > 0.5 * setup
          and setup >= 0.5 * cell_sum,
          "deploy_sf100: prewarm is most of setup, setup >= half of cell time")
    check(total("closed_sf1_latest", "deploy_ms")
          < 0.02 * total("closed_sf1_latest", "cell_ms")
          and sum(c["lock.waits"] > 0 for c in cells["closed_sf1_latest"])
          >= 4,
          "closed_sf1_latest: setup < 2% of cell time, lock waits on >= 4 "
          "SUTs")
    check(total("open_sf10_ro", "wal.records") == 0
          and total("open_sf10_ro", "lock.waits") == 0
          and sum(c["load.inflight_hwm"] >= 10000
                  for c in cells["open_sf10_ro"]) >= 3,
          "open_sf10_ro: no WAL records, no lock waits, >= 10k sessions in "
          "flight on >= 3 SUTs")

    log(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


def main():
    commands = {"self-test": cmd_self_test, "compare": cmd_compare,
                "record": cmd_record}
    if len(sys.argv) > 1 and sys.argv[1] in commands:
        return commands[sys.argv[1]](sys.argv[2:])
    return cmd_run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())

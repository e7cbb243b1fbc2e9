#!/usr/bin/env bash
# Full pre-merge check: build (warnings are errors) + ctest in Release,
# then again with AddressSanitizer and ThreadSanitizer
# (-DCLOUDYBENCH_SANITIZE=...), plus the matrix-runner determinism smokes:
# bench_runner_demo, the fault matrix, the open-loop saturation bench, the
# tenant-sharded cell and the chaos sweep must produce byte-identical
# stdout (and JSONL / timeline CSV / profile / verdict artifacts) at
# --jobs=1 and --jobs=2. The chaos sweep doubles as a correctness gate:
# it exits non-zero when any end-to-end oracle fails, and the ASan suite
# reruns a bounded sweep with instrumentation armed.
# Build trees live under build-check/ so the developer's main build/ is
# left alone. The sanitizer suites run every test, including the timeline
# suite, under ASan/TSan via ctest. The perf gate (also available alone as
# --perf-only, the CI perf job's entry point) compares the micro benches
# against BENCH_core.json tolerance bands and FAILS on regression — see
# docs/PERF.md for the policy.
#
# Usage: scripts/check.sh [--asan-only|--release-only|--tsan-only|--perf-only]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"

run_suite() {
  local name="$1"
  shift
  local dir="build-check/${name}"
  echo "=== [${name}] configure ==="
  cmake -S . -B "${dir}" -DCMAKE_BUILD_TYPE=Release "$@"
  echo "=== [${name}] build ==="
  cmake --build "${dir}" -j "${JOBS}"
  echo "=== [${name}] ctest ==="
  ctest --test-dir "${dir}" --output-on-failure -j "${JOBS}"
}

# Matrix-runner determinism smokes: each row runs one bench twice and the
# two runs must agree byte for byte — stdout, the --jsonl= rows and every
# per-cell artifact. Any divergence (ordering, rounding, wall-clock or
# cross-cell state leaking into results) fails the check. The runner's
# [runner] accounting line goes to stderr by design and is not compared.
#
# Row: label | bench | args of both runs | args of run 1 | args of run 2.
# @OUT@ expands to the run's own directory, which is diffed whole. The
# rows cover DESIGN.md §4d (runner), §4e (timeline), §4j (profile), §4g
# (fault), §4h (load), §4k (tenant shards: --cell-shards=1 vs 2, serially
# and on two workers) and §4l (chaos, with the per-oracle verdict rows; the
# sweep exits non-zero when an oracle fails, so that row is also a
# correctness gate).
DETERMINISM_ROWS=(
  "runner|bench_runner_demo||--jobs=1|--jobs=2"
  "timeline|bench_runner_demo|--timeline-csv-template=@OUT@/{id}.timeline.csv|--jobs=1|--jobs=2"
  "profile|bench_runner_demo|--profile-collapsed-template=@OUT@/{id}.collapsed.txt --profile-chrome-template=@OUT@/{id}.trace.json|--jobs=1|--jobs=2"
  "fault|bench_fault_matrix|--smoke --jsonl=@OUT@/rows.jsonl|--jobs=1|--jobs=2"
  "load|bench_saturation|--smoke --jsonl=@OUT@/rows.jsonl|--jobs=1|--jobs=2"
  "cell_shards|bench_cell_scaling|--smoke --jsonl=@OUT@/rows.jsonl|--cell-shards=1 --jobs=1|--cell-shards=2 --jobs=1"
  "cell_jobs|bench_cell_scaling|--smoke --jsonl=@OUT@/rows.jsonl|--cell-shards=1 --jobs=1|--cell-shards=2 --jobs=2"
  "chaos|bench_chaos_sweep|--smoke --jsonl=@OUT@/rows.jsonl --verdicts=@OUT@/verdicts.jsonl|--jobs=1|--jobs=2"
)

determinism_smoke() {
  local dir="build-check/release"
  local row label bench shared run1 run2 run args out
  for row in "${DETERMINISM_ROWS[@]}"; do
    IFS='|' read -r label bench shared run1 run2 <<< "${row}"
    echo "=== [${label}] determinism smoke (${run1} vs ${run2}) ==="
    cmake --build "${dir}" -j "${JOBS}" --target "${bench}"
    for run in 1 2; do
      out="${dir}/determinism/${label}/${run}"
      rm -rf "${out}"
      mkdir -p "${out}"
      args="${run1}"
      if [[ "${run}" == 2 ]]; then args="${run2}"; fi
      # Both argument lists are word-split on purpose.
      # shellcheck disable=SC2086
      "${dir}/bench/${bench}" ${shared//@OUT@/${out}} ${args} \
        > "${out}/stdout.txt"
    done
    diff -r "${dir}/determinism/${label}/1" "${dir}/determinism/${label}/2"
    echo "=== [${label}] stdout + artifacts byte-identical ==="
  done
}

# Bounded chaos sweep under the active sanitizer: 8 fuzzed plans exercise
# the fuzzer -> harness -> oracle -> (potential) shrinker pipeline with
# instrumentation armed. Oracle failures fail the suite here too.
sanitizer_chaos_smoke() {
  local name="$1"
  local dir="build-check/${name}"
  echo "=== [${name}] chaos sweep under sanitizer (8 plans) ==="
  cmake --build "${dir}" -j "${JOBS}" --target bench_chaos_sweep
  "${dir}/bench/bench_chaos_sweep" --plans=8 --jobs=2 > /dev/null
  echo "=== [${name}] sanitized chaos sweep clean ==="
}

# GATING perf check: runs the DES/storage micro benches against the
# committed baseline (BENCH_core.json) and FAILS when any benchmark
# exceeds its tolerance band. Bands come from the baseline's "gate"
# section — gate.default_tolerance for most benches, gate.tolerances for
# per-bench overrides (sub-20ns benches get wider bands because timer
# quantization dominates; the macro cell bench gets a tighter one because
# it aggregates noise away). docs/PERF.md documents the policy, including
# when a legitimate baseline refresh is the right fix.
#
# The gate also enforces the obs self-cost budget: BM_ObsOverhead (the
# obs-armed OLTP cell) must stay within gate.obs_overhead_max_ratio of
# BM_OltpCellEventsPerSecond measured in the same run.
#
# Provenance guard: the check refuses to compare across build types — a
# Release run against a debug baseline (or vice versa) would always pass
# or always fail for the wrong reason. Build types come from the bench
# binary's own cloudybench_build_type context key, not the benchmark
# library's library_build_type (which reports the *library's* build).
#
# A fresh reduced baseline is always written to
# build-check/release/BENCH_core.fresh.json so CI can upload it as an
# artifact on failure and a maintainer can diff or adopt it.
perf_gate() {
  local dir="build-check/release"
  if [[ ! -f BENCH_core.json ]]; then
    echo "=== [perf] BENCH_core.json missing; skipping perf gate ==="
    return 0
  fi
  echo "=== [perf] gating micro-bench check vs BENCH_core.json ==="
  if [[ ! -f "${dir}/CMakeCache.txt" ]]; then
    cmake -S . -B "${dir}" -DCMAKE_BUILD_TYPE=Release
  fi
  cmake --build "${dir}" -j "${JOBS}" --target bench_micro_engine
  "${dir}/bench/bench_micro_engine" \
    --benchmark_format=json --benchmark_min_time=0.2 \
    > "${dir}/bench_core_now.json"
  python3 - BENCH_core.json "${dir}/bench_core_now.json" \
    "${dir}/BENCH_core.fresh.json" <<'PY'
import json, sys

base_path, now_path, fresh_path = sys.argv[1], sys.argv[2], sys.argv[3]
with open(base_path) as f:
    base = json.load(f)
with open(now_path) as f:
    raw = json.load(f)

baseline = base["benchmarks"]
gate = base.get("gate", {})
default_tol = gate.get("default_tolerance", 2.0)
tols = gate.get("tolerances", {})

scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
ctx = raw.get("context", {})
now_build = ctx.get("cloudybench_build_type",
                    ctx.get("library_build_type", "unknown"))
base_build = base.get("context", {}).get("build_type", "unknown")

ns_per_op = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    ns_per_op[b["name"]] = round(
        b["real_time"] * scale[b.get("time_unit", "ns")], 2)

# Always write the fresh reduced baseline for artifact upload / adoption.
fresh = {
    "schema": base.get("schema", "cloudybench-perf-baseline-v2"),
    "source": base.get("source"),
    "time_unit": base.get("time_unit", "ns_per_op_real"),
    "context": {"num_cpus": ctx.get("num_cpus"), "build_type": now_build},
    "gate": gate,
    "benchmarks": dict(sorted(ns_per_op.items())),
}
with open(fresh_path, "w") as f:
    json.dump(fresh, f, indent=2)
    f.write("\n")

if now_build != base_build:
    print(f"ERROR: [perf] build-type mismatch: this run is '{now_build}' "
          f"but BENCH_core.json was measured '{base_build}'. Comparing "
          "across build types is meaningless; run the gate from a "
          f"'{base_build}' build or refresh the baseline with "
          "scripts/perf_baseline.sh.")
    sys.exit(3)

failures = 0
for name, base_ns in sorted(baseline.items()):
    if name not in ns_per_op:
        print(f"ERROR: [perf] {name} in baseline but not in this run — "
              "benchmark removed without a baseline refresh?")
        failures += 1
        continue
    now_ns = ns_per_op[name]
    tol = tols.get(name, default_tol)
    if base_ns > 0 and now_ns > tol * base_ns:
        failures += 1
        print(f"FAIL: [perf] {name}: {now_ns:.1f} ns/op vs baseline "
              f"{base_ns:.1f} ns/op ({now_ns / base_ns:.2f}x > "
              f"tolerance {tol:.2f}x)")
for name in sorted(set(ns_per_op) - set(baseline)):
    print(f"NOTE: [perf] {name} has no baseline entry yet "
          "(add it with scripts/perf_baseline.sh)")

# Obs self-cost budget (DESIGN.md §4j): the obs-armed OLTP cell may not
# exceed the obs-off cell by more than gate.obs_overhead_max_ratio. Both
# numbers come from *this run*, so machine speed cancels and the check
# stays meaningful on hardware unlike the baseline's.
obs_ratio_max = gate.get("obs_overhead_max_ratio")
if obs_ratio_max:
    on = ns_per_op.get("BM_ObsOverhead")
    off = ns_per_op.get("BM_OltpCellEventsPerSecond")
    if on is None or off is None or off <= 0:
        failures += 1
        print("ERROR: [perf] obs-overhead budget needs both BM_ObsOverhead "
              "and BM_OltpCellEventsPerSecond in this run")
    elif on > obs_ratio_max * off:
        failures += 1
        print(f"FAIL: [perf] obs overhead: BM_ObsOverhead {on:.0f} ns/op is "
              f"{on / off:.3f}x the obs-off cell ({off:.0f} ns/op), over "
              f"the {obs_ratio_max:.2f}x budget")
    else:
        print(f"[perf] obs overhead {on / off:.3f}x obs-off, within the "
              f"{obs_ratio_max:.2f}x budget")

if failures:
    print(f"[perf] GATE FAILED: {failures} benchmark(s) out of band. "
          "If the regression is intentional, refresh BENCH_core.json via "
          "scripts/perf_baseline.sh and justify it in the PR "
          "(see docs/PERF.md); fresh numbers were written to "
          f"{fresh_path}.")
    sys.exit(1)
print(f"[perf] all {len(baseline)} benchmarks within their tolerance "
      "bands")
PY
  echo "=== [perf] gate passed ==="
}

case "${MODE}" in
  all)
    run_suite release -DCLOUDYBENCH_WERROR=ON
    determinism_smoke
    perf_gate
    run_suite asan -DCLOUDYBENCH_SANITIZE=address
    sanitizer_chaos_smoke asan
    run_suite tsan -DCLOUDYBENCH_SANITIZE=thread
    ;;
  --release-only)
    run_suite release -DCLOUDYBENCH_WERROR=ON
    determinism_smoke
    perf_gate
    ;;
  --perf-only)
    # CI perf job entry point: build only what the gate needs and run it.
    perf_gate
    ;;
  --asan-only)
    run_suite asan -DCLOUDYBENCH_SANITIZE=address
    sanitizer_chaos_smoke asan
    ;;
  --tsan-only)
    run_suite tsan -DCLOUDYBENCH_SANITIZE=thread
    ;;
  *)
    echo "usage: $0 [--asan-only|--release-only|--tsan-only|--perf-only]" >&2
    exit 2
    ;;
esac

echo "=== all checks passed ==="

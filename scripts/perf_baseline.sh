#!/usr/bin/env bash
# Refreshes the committed perf baselines: BENCH_core.json from
# bench_micro_engine, and BENCH_e2e.json from the runner benches' summary
# lines at --jobs=1 (scripts/e2e_perf.py: cells, wall, cells-sum and
# sim-s per wall-s per bench, the median of three runs). The baselines are
# the contract behind the check.sh perf gate (fail when a hot path or a
# whole bench regresses past its tolerance band) and the before/after
# evidence of a perf change; re-run this after an intentional perf change
# on a quiet machine whose numbers you want to publish.
#
# Provenance: every column records the build type and CPU count it was
# measured with. The build type comes from the bench binary's own
# "cloudybench_build_type" context key (NDEBUG-derived), not from
# google-benchmark's library_build_type — the system benchmark library is
# a debug build even when CloudyBench itself is compiled Release, so the
# library field mislabels Release runs.
#
# BENCH_core.json's reference sections (seed_reference, round1_reference,
# native_reference) and gate tolerances are carried over untouched on
# refresh; the --native flag re-measures only the native_reference column
# from a Release + -DCLOUDYBENCH_NATIVE=ON tree.
#
# Usage: scripts/perf_baseline.sh [--native] [build-dir]
#   build-dir defaults to build-perf (configured Release here if absent);
#   --native uses build-perf-native with CLOUDYBENCH_NATIVE=ON and writes
#   the native_reference section instead of the main benchmarks column
#   (BENCH_e2e.json is left alone: it tracks the portable build only).
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

NATIVE=0
if [[ "${1:-}" == "--native" ]]; then
  NATIVE=1
  shift
fi
if [[ "${NATIVE}" == "1" ]]; then
  DIR="${1:-build-perf-native}"
  CONFIG_ARGS=(-DCMAKE_BUILD_TYPE=Release -DCLOUDYBENCH_NATIVE=ON)
else
  DIR="${1:-build-perf}"
  CONFIG_ARGS=(-DCMAKE_BUILD_TYPE=Release)
fi

if [[ ! -f "${DIR}/CMakeCache.txt" ]]; then
  cmake -S . -B "${DIR}" "${CONFIG_ARGS[@]}"
fi
cmake --build "${DIR}" -j "${JOBS}" --target bench_micro_engine

RAW="${DIR}/bench_core_raw.json"
"${DIR}/bench/bench_micro_engine" \
  --benchmark_format=json \
  --benchmark_min_time=0.2 \
  > "${RAW}"

# Reduce google-benchmark's JSON to the stable shape the perf gate
# consumes: {benchmark name -> ns/op (real time)} plus per-column
# provenance. Existing reference sections and gate tolerances are carried
# over untouched.
python3 - "${RAW}" BENCH_core.json "${NATIVE}" <<'PY'
import json, os, sys

raw_path, out_path, native = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
with open(raw_path) as f:
    raw = json.load(f)

prev = {}
if os.path.exists(out_path):
    try:
        with open(out_path) as f:
            prev = json.load(f)
    except (json.JSONDecodeError, OSError):
        pass

ns_per_op = {}
for b in raw.get("benchmarks", []):
    if b.get("run_type", "iteration") != "iteration":
        continue
    t = b["real_time"]
    unit = b.get("time_unit", "ns")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
    ns_per_op[b["name"]] = round(t * scale, 2)

ctx = raw.get("context", {})
# cloudybench_build_type is emitted by the bench binary itself (NDEBUG);
# library_build_type describes the *benchmark library* and reports debug
# even for Release CloudyBench builds, so it is only a last resort.
build_type = ctx.get("cloudybench_build_type",
                     ctx.get("library_build_type", "unknown"))
if native:
    build_type = f"{build_type}-native"
column_context = {"num_cpus": ctx.get("num_cpus"), "build_type": build_type}

out = {
    "schema": "cloudybench-perf-baseline-v2",
    "source": "bench/bench_micro_engine.cc via scripts/perf_baseline.sh",
    "time_unit": "ns_per_op_real",
}

if native:
    # Keep the portable main column; replace only native_reference.
    for key in ("context", "gate", "benchmarks"):
        if key in prev:
            out[key] = prev[key]
    out["native_reference"] = {
        "note": "Release + -DCLOUDYBENCH_NATIVE=ON (-march=native + IPO) "
                "on the baseline machine; host-tuned upper bound, never "
                "compared against by the perf gate",
        "context": column_context,
        "benchmarks": dict(sorted(ns_per_op.items())),
    }
else:
    out["context"] = column_context
    if "gate" in prev:
        out["gate"] = prev["gate"]
    out["benchmarks"] = dict(sorted(ns_per_op.items()))
    if "native_reference" in prev:
        out["native_reference"] = prev["native_reference"]

for key in ("round1_reference", "round2_reference", "seed_reference"):
    if key in prev:
        out[key] = prev[key]

with open(out_path, "w") as f:
    json.dump(out, f, indent=2, sort_keys=False)
    f.write("\n")
print(f"wrote {out_path} ({len(ns_per_op)} benchmarks, "
      f"build_type={build_type})")
PY

if [[ "${NATIVE}" == "0" ]]; then
  python3 scripts/e2e_perf.py record "${DIR}" BENCH_e2e.json
fi

#!/usr/bin/env bash
# Same bytes as the parent: runs every runner bench from two build trees
# and requires identical output. A change that claims "no output change"
# (a refactor, a perf optimisation) must pass this against a build of its
# parent commit.
#
# Usage: scripts/same_bytes.sh PARENT_BUILD CHANGE_BUILD [OUT_DIR]
#
#   PARENT_BUILD, CHANGE_BUILD  configured build trees (Release is what the
#                               benches are timed in, but any build type
#                               works as long as both use the same one)
#   OUT_DIR                     where the runs go (default
#                               build-check/same_bytes, wiped first)
#
# Every runner bench (the list scripts/e2e_perf.py times, plus the
# multi-tenant ladder and the props CLI on examples/configs/demo.props)
# runs at --jobs=1 and at --jobs=4 with --jsonl=, and bench_runner_demo
# and bench_latency_breakdown run once more with every artifact template
# (trace, metrics, timeline CSV/JSONL, collapsed and Chrome profiles). For
# each row the parent runs first (into OUT_DIR/<row>/1), then the change
# (OUT_DIR/<row>/2); stdout and every file the run wrote are compared by
# compare_runs (scripts/compare_runs.sh, shared with check.sh's
# determinism smokes). The script stops at the first row that differs,
# names it and the differing files, and exits 1; it exits 0 when every row
# matches. The runner's [runner] summary goes to stderr (host timings) and
# is not compared.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  sed -n '2,/^set -euo/p' "$0" | sed '$d'
  exit 2
fi

cd "$(dirname "$0")/.."
source scripts/compare_runs.sh
PARENT="$(cd "$1" && pwd)"
CHANGE="$(cd "$2" && pwd)"
OUT="${3:-build-check/same_bytes}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Rows: label | binary (path in the build tree) | arguments. The arguments
# are word-split; @OUT@ expands to the run's own output directory.
ROWS=()
while read -r bench args; do
  for jobs in 1 4; do
    ROWS+=("${bench}/jobs${jobs}|bench/${bench}|${args} --jobs=${jobs} --jsonl=@OUT@/rows.jsonl")
  done
done < <(python3 - <<'EOF'
import sys
sys.path.insert(0, "scripts")
import e2e_perf
for name, args in e2e_perf.BENCHES:
    print(name, " ".join(args))
print("bench_cell_scaling --smoke")
EOF
)
for jobs in 1 4; do
  ROWS+=("cloudybench_cli/jobs${jobs}|examples/cloudybench_cli|examples/configs/demo.props --jobs=${jobs} --jsonl=@OUT@/rows.jsonl")
done
ARTIFACTS="--trace-template=@OUT@/{id}.trace.json \
--metrics-template=@OUT@/{id}.metrics.jsonl \
--timeline-csv-template=@OUT@/{id}.timeline.csv \
--timeline-jsonl-template=@OUT@/{id}.timeline.jsonl \
--profile-collapsed-template=@OUT@/{id}.collapsed.txt \
--profile-chrome-template=@OUT@/{id}.profile.json"
for bench in bench_runner_demo bench_latency_breakdown; do
  ROWS+=("${bench}/artifacts|bench/${bench}|--jobs=4 ${ARTIFACTS}")
done

targets=()
for row in "${ROWS[@]}"; do
  IFS='|' read -r _ binary _ <<< "${row}"
  targets+=("${binary##*/}")
done
mapfile -t targets < <(printf '%s\n' "${targets[@]}" | sort -u)
for tree in "${PARENT}" "${CHANGE}"; do
  echo "=== build ${tree} ==="
  cmake --build "${tree}" -j "${JOBS}" --target "${targets[@]}" > /dev/null
done

rm -rf "${OUT}"
for row in "${ROWS[@]}"; do
  IFS='|' read -r label binary args <<< "${row}"
  if ! compare_runs "${OUT}/${label}" "${binary}" "${args}" \
       "${PARENT}" "" "${CHANGE}" ""; then
    echo "=== FIRST DIFFERENCE: ${label} (1 = parent, 2 = change," \
         "under ${OUT}/${label}) ==="
    exit 1
  fi
  echo "=== [${label}] same bytes ==="
done
echo "=== all ${#ROWS[@]} rows byte-identical ==="

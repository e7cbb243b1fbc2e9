# Sourced by scripts/check.sh (determinism smokes: one build, --jobs=1
# against --jobs=2) and scripts/same_bytes.sh (a parent build against a
# change build): both run a binary twice and require the same bytes.
#
# compare_runs OUT BINARY ARGS TREE1 ARGS1 TREE2 ARGS2
#
# Runs TREE1/BINARY with ARGS then ARGS1 into OUT/1, and TREE2/BINARY with
# ARGS then ARGS2 into OUT/2 (OUT is wiped first). A run's stdout goes to
# stdout.txt in its directory and its stderr (the runner's host-timed
# [runner] summary) to OUT/1.stderr or OUT/2.stderr, outside the compared
# directories. The argument lists are word-split, and @OUT@ in them
# expands to the run's own directory. Returns 0 when OUT/1 and OUT/2 are
# byte-identical; otherwise names the failed run or the differing files
# and returns 1.
compare_runs() {
  local out="$1" binary="$2" args="$3"
  local trees=("$4" "$6") extra=("$5" "$7")
  local run dir
  rm -rf "${out}"
  for run in 1 2; do
    dir="${out}/${run}"
    mkdir -p "${dir}"
    # shellcheck disable=SC2086  # the argument lists are word-split on purpose
    if ! "${trees[run - 1]}/${binary}" ${args//@OUT@/${dir}} \
         ${extra[run - 1]//@OUT@/${dir}} \
         > "${dir}/stdout.txt" 2> "${out}/${run}.stderr"; then
      echo "run ${run} failed: ${trees[run - 1]}/${binary}"
      tail -n 20 "${out}/${run}.stderr"
      return 1
    fi
  done
  diff -rq "${out}/1" "${out}/2"
}

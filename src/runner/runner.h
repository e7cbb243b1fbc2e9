#ifndef CLOUDYBENCH_RUNNER_RUNNER_H_
#define CLOUDYBENCH_RUNNER_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "runner/matrix.h"

namespace cloudybench::runner {

/// Everything a cell function receives besides its spec: its position in
/// the matrix and the per-cell artifact paths expanded from the runner's
/// templates (empty when not requested).
///
/// `trace_path` is handled by the runner itself — the worker's thread-local
/// TraceRecorder is enabled before the cell and the Chrome trace is written
/// after it returns. `metrics_path` must be consumed *inside* the cell
/// (e.g. OltpEvaluator::Options::metrics_export_path) because the metric
/// registry's gauges unregister when the cell's cluster is destroyed.
/// `timeline_csv_path` / `timeline_jsonl_path` are handled by the runner
/// like the trace: the worker's thread-local Timeline is enabled before the
/// cell and the artifacts are written after it returns. Cells that want
/// periodic metric samples (not just journal events) additionally start a
/// TimelineSampler inside their sim::Environment — see runner::CellDeployment.
struct CellContext {
  const CellSpec& spec;
  size_t index = 0;
  std::string trace_path;
  std::string metrics_path;
  std::string timeline_csv_path;
  std::string timeline_jsonl_path;
  /// Per-cell profile artifacts (collapsed-stack / Chrome-trace icicle of
  /// the merged span tree). Handled by the runner like the trace: either
  /// being non-empty arms the recorder, and the profile is computed and
  /// written after the cell returns. Sim-time only, so both files are
  /// byte-identical at any --jobs.
  std::string profile_collapsed_path;
  std::string profile_chrome_path;
};

using CellFn = std::function<CellResult(const CellContext&)>;

struct RunnerOptions {
  /// Worker threads; <= 0 means all hardware threads. The pool never
  /// exceeds the cell count.
  int jobs = 0;
  /// When non-empty, one ToJsonLine() per cell is written here in matrix
  /// order after the sweep completes.
  std::string jsonl_path;
  /// Per-cell Chrome-trace path template (see ExpandCellTemplate); empty
  /// disables tracing.
  std::string trace_template;
  /// Per-cell metrics-snapshot path template, surfaced to the cell via
  /// CellContext::metrics_path.
  std::string metrics_template;
  /// Per-cell timeline artifact templates (CSV / JSONL). Either being
  /// non-empty arms the thread-local obs::Timeline for the cell; the runner
  /// writes the artifacts after the cell returns.
  std::string timeline_csv_template;
  std::string timeline_jsonl_template;
  /// Per-cell profiler artifact templates: collapsed stacks ("a;b;c us"
  /// lines, flamegraph.pl / speedscope input) and the merged-tree Chrome
  /// trace. Either being non-empty arms the thread-local TraceRecorder for
  /// the cell (same as trace_template) and writes the profile after it
  /// returns.
  std::string profile_collapsed_template;
  std::string profile_chrome_template;
  /// Wall/sim-time accounting line after the sweep. Goes to stderr so that
  /// stdout (tables, JSONL) stays byte-identical across thread counts.
  bool print_summary = true;
};

/// Executes an experiment matrix on a fixed-size worker pool and collects
/// results in deterministic matrix order.
///
/// Guarantees:
///  * **Isolation** — every cell runs in its own sim::Environment on one
///    worker thread; the worker's thread-local TraceRecorder/MetricRegistry
///    are Clear()ed before each cell, so cells are independent of worker
///    placement and of each other.
///  * **Determinism** — results (and the JSONL artifact) are ordered by
///    matrix index, and CellResult carries no host-time field into the
///    serialized output, so output bytes are identical for any --jobs and
///    any completion order.
///  * **Failure isolation** — a cell that throws produces an error row
///    (ok=false, the exception text) instead of killing the sweep.
///    CB_CHECK failures abort the process by design and are not isolable.
class MatrixRunner {
 public:
  explicit MatrixRunner(RunnerOptions options = {});

  /// Runs `fn` once per cell. Cells are claimed dynamically (an expensive
  /// SF100 cell does not hold up the queue behind it); results come back
  /// indexed by submission order regardless.
  std::vector<CellResult> Run(const std::vector<CellSpec>& cells,
                              const CellFn& fn) const;

  /// The worker count a matrix of `n` cells would use.
  int ResolveJobs(size_t n) const;

 private:
  RunnerOptions options_;
};

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_RUNNER_H_

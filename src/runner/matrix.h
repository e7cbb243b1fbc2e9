#ifndef CLOUDYBENCH_RUNNER_MATRIX_H_
#define CLOUDYBENCH_RUNNER_MATRIX_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/sim_time.h"
#include "sut/profiles.h"

namespace cloudybench::runner {

/// Declarative coordinates of one experiment cell. Every CloudyBench
/// figure/table is a matrix of independent deterministic simulations
/// (SUT × scale factor × concurrency × pattern × seed); a CellSpec names
/// one point of that matrix, and the MatrixRunner executes each point in
/// its own isolated sim::Environment.
///
/// `pattern` is a free-form label interpreted by the cell function: the
/// standard OLTP cell (RunOltpCell) reads the workload mode "RO" / "RW" /
/// "WO" from it, custom cells can carry an elasticity-pattern or baseline
/// name. It participates in the default cell id and path templating either
/// way.
struct CellSpec {
  std::string id;  ///< unique row key; DefaultCellId(*this) when empty
  sut::SutKind sut = sut::SutKind::kAwsRds;
  int64_t scale_factor = 1;
  int n_ro = 0;  ///< read-only replicas to deploy
  int concurrency = 100;
  std::string pattern = "RW";
  uint64_t seed = 42;
  sim::SimTime warmup = sim::Seconds(1);
  sim::SimTime measure = sim::Seconds(2);
  /// Pin the autoscaler at the profile's maximum (throughput-style cells);
  /// set false plus `serverless` for elasticity-style cells.
  bool freeze_at_max = true;
  bool serverless = false;
  double time_scale = 1.0;
};

/// "CDB3/sf10/RW/con150/seed42" — unique as long as the matrix does not
/// repeat coordinates (if it does, give the duplicates explicit ids).
std::string DefaultCellId(const CellSpec& spec);

/// Result row of one cell, collected by the runner in matrix order.
///
/// Values are stored twice: a formatted string (what tables and the JSONL
/// artifact show — formatting is part of the deterministic output contract)
/// and, for metrics, the raw double so downstream aggregation (averages,
/// score compositions) does not re-parse rounded text.
///
/// `wall_ms` is the only non-deterministic field; it is deliberately
/// excluded from ToJsonLine() so artifacts are byte-identical regardless of
/// thread count.
struct CellResult {
  std::string id;
  size_t index = 0;  ///< position in the submitted matrix
  bool ok = false;
  std::string error;  ///< failure-isolation note when !ok

  /// Ordered columns (insertion order == column order in the artifact).
  std::vector<std::pair<std::string, std::string>> values;
  /// Raw numeric values for keys added via AddMetric.
  std::map<std::string, double, std::less<>> numbers;

  double sim_seconds = 0;  ///< simulated clock at cell end (deterministic)
  double wall_ms = 0;      ///< host wall time (never serialized)

  /// Appends a preformatted text column.
  void AddText(std::string key, std::string value);
  /// Appends a numeric column, formatted at `precision` decimals.
  void AddMetric(const std::string& key, double value, int precision);

  /// Formatted value lookup ("" / `dflt` when missing).
  std::string Text(std::string_view key, std::string dflt = "") const;
  /// Raw numeric lookup (only keys added via AddMetric).
  double Number(std::string_view key, double dflt = 0) const;
};

/// One line of JSON for the artifact stream: id, index, ok, error (if any),
/// sim_seconds, then every value column in insertion order. Deterministic:
/// same matrix + seeds => identical bytes at any --jobs.
std::string ToJsonLine(const CellResult& result);

/// Expands `{id}`, `{index}`, `{sut}`, `{sf}`, `{con}`, `{pattern}` and
/// `{seed}` placeholders in a path template ("traces/{sut}-sf{sf}.json").
/// `{id}`'s '/' separators are replaced with '-' so the expansion stays a
/// single path component.
std::string ExpandCellTemplate(std::string_view tmpl, const CellSpec& spec,
                               size_t index);

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_MATRIX_H_

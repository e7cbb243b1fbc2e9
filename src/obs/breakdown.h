#ifndef CLOUDYBENCH_OBS_BREAKDOWN_H_
#define CLOUDYBENCH_OBS_BREAKDOWN_H_

#include <array>
#include <cstdint>
#include <vector>

#include "obs/trace.h"

namespace cloudybench::obs {

/// Aggregates a recorded trace into a per-transaction-label table of
/// *exclusive* time per layer — the in-process answer to "where does the
/// latency go" (flame-graph style: a parent span is only charged for time
/// not covered by one of its children, so the layer columns of a row sum
/// exactly to the row's end-to-end total). It is a fold over the same
/// stack-recovery walk the Profiler builds its tree from (WalkSpanStacks).
///
/// Only committed kTxn root spans (and the spans on their tracks)
/// participate; aborted and torn-down transactions are excluded, matching
/// what the PerformanceCollector's latency histograms record. That makes
/// `total_ms / txns` directly comparable to the collector's per-type mean
/// latency — bench_latency_breakdown checks they agree within 5%.
class LatencyBreakdown {
 public:
  struct Row {
    int32_t label = -1;  // TxnType ordinal passed to TxnManager::Begin
    int64_t txns = 0;
    double total_ms = 0;  // sum of root-span durations
    std::array<double, kLayerCount> layer_ms{};  // exclusive time per layer
  };

  static LatencyBreakdown FromTrace(const TraceRecorder& recorder);

  /// Rows sorted by label.
  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

}  // namespace cloudybench::obs

#endif  // CLOUDYBENCH_OBS_BREAKDOWN_H_

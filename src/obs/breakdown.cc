#include "obs/breakdown.h"

#include <map>

#include "obs/profiler.h"

namespace cloudybench::obs {

LatencyBreakdown LatencyBreakdown::FromTrace(const TraceRecorder& recorder) {
  // A per-label fold over the profiler's stack-recovery walk: each
  // committed, labelled root's track charges its spans' exclusive time to
  // the root label's row.
  class RowFold : public SpanStackVisitor {
   public:
    bool OnTrack(const Span* root) override {
      if (root == nullptr || !root->committed || root->label < 0) {
        return false;
      }
      row_ = &rows[root->label];
      row_->label = root->label;
      row_->txns += 1;
      row_->total_ms +=
          static_cast<double>(root->end_us - root->begin_us) / 1e3;
      return true;
    }
    int OnOpen(const Span&, int) override { return 0; }
    void OnClose(const Span& span, int, int64_t exclusive_us) override {
      row_->layer_ms[static_cast<int>(span.layer)] +=
          static_cast<double>(exclusive_us) / 1e3;
    }

    std::map<int32_t, Row> rows;

   private:
    Row* row_ = nullptr;
  };

  RowFold fold;
  WalkSpanStacks(recorder, fold);
  LatencyBreakdown breakdown;
  breakdown.rows_.reserve(fold.rows.size());
  for (auto& [label, row] : fold.rows) breakdown.rows_.push_back(row);
  return breakdown;
}

}  // namespace cloudybench::obs

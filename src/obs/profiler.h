#ifndef CLOUDYBENCH_OBS_PROFILER_H_
#define CLOUDYBENCH_OBS_PROFILER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "util/status.h"

namespace cloudybench::obs {

/// The stack-recovery walk every trace analysis shares. Closed spans are
/// bucketed by track (ascending track id; recording order within a track,
/// which is pre-order DFS because a txn coroutine is sequential), the first
/// kTxn span of a track is its root, and a stack over recording order
/// recovers parent/child nesting. Spans still open are skipped.
class SpanStackVisitor {
 public:
  virtual ~SpanStackVisitor() = default;
  /// Called before each track's spans; `root` is its first kTxn span, or
  /// null. Returning false skips the track.
  virtual bool OnTrack(const Span* root) = 0;
  /// A span is pushed under its enclosing span; `parent` is the value
  /// OnOpen returned for that span (0 at the top of a track). The return
  /// value is handed to the span's children and to its OnClose.
  virtual int OnOpen(const Span& span, int parent) = 0;
  /// A span is popped, children before their parent. `exclusive_us` is
  /// its duration minus its direct children's. The wall fields are -1 and
  /// 0 unless the recorder captured wall stamps for the span.
  virtual void OnClose(const Span& span, int node, int64_t exclusive_us,
                       int64_t wall_ns, int64_t wall_exclusive_ns) = 0;
};

void WalkSpanStacks(const TraceRecorder& recorder, SpanStackVisitor& visitor);

/// Deterministic hierarchical profiler over a recorded trace.
///
/// Folds every track's spans (WalkSpanStacks, committed or not) into one
/// merged call tree keyed by span-name path: each node carries call count,
/// inclusive and *exclusive* simulated time, and — when the recorder
/// captured wall stamps — inclusive/exclusive host wall time. Because span
/// order and sim timestamps are deterministic, the sim-time side of the
/// profile (and both artifact exports) is byte-identical for a given cell
/// at any `--jobs` count; wall time is reported separately and never lands
/// in the byte-stable artifacts.
///
/// Exports:
///  - CollapsedStack(): "a;b;c <exclusive_sim_us>" lines (flamegraph.pl /
///    speedscope collapsed format), children sorted by name.
///  - ChromeTraceJson(): the aggregated tree as a synthetic icicle (one
///    "X" event per node, children packed left-to-right inside their
///    parent), loadable in Perfetto.
///  - WallReport(): human-readable table including wall time; only built
///    when wall capture was on, and intentionally not byte-stable.
class Profiler {
 public:
  struct Node {
    const char* name = "";
    Layer layer = Layer::kTxn;
    int parent = -1;
    int64_t count = 0;
    int64_t inclusive_us = 0;
    int64_t exclusive_us = 0;
    int64_t wall_inclusive_ns = 0;
    int64_t wall_exclusive_ns = 0;
    std::vector<int> children;  // sorted by (name, layer)
  };

  static Profiler FromTrace(const TraceRecorder& recorder);

  /// nodes()[0] is the synthetic root (name ""); real stacks hang off it.
  const std::vector<Node>& nodes() const { return nodes_; }
  bool has_wall_time() const { return has_wall_; }

  int64_t total_exclusive_us() const;
  /// Sum of exclusive sim-time over nodes of one layer.
  int64_t ExclusiveUsByLayer(Layer layer) const;

  std::string CollapsedStack() const;
  std::string ChromeTraceJson() const;
  std::string WallReport() const;

 private:
  std::vector<Node> nodes_;
  bool has_wall_ = false;
};

util::Status WriteProfileCollapsedFile(const Profiler& profile,
                                       const std::string& path);
util::Status WriteProfileChromeTraceFile(const Profiler& profile,
                                         const std::string& path);

}  // namespace cloudybench::obs

#endif  // CLOUDYBENCH_OBS_PROFILER_H_

#ifndef CLOUDYBENCH_OBS_TRACE_H_
#define CLOUDYBENCH_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/environment.h"
#include "sim/sim_time.h"

namespace cloudybench::obs {

/// Span taxonomy: which layer of the stack a span's time belongs to. The
/// stack-recovery walk behind Profiler and LatencyBreakdown
/// (WalkSpanStacks, obs/profiler.h) charges *exclusive* time per span, so a
/// parent span (kOp) only accounts for time not covered by its children
/// (kLock, kCpu, ...). See DESIGN.md "Observability".
enum class Layer : uint8_t {
  kTxn = 0,     // whole-transaction root span (Begin -> Commit/Abort)
  kOp = 1,      // one statement (get/insert/update/delete)
  kCommit = 2,  // TxnManager commit protocol
  kLock = 3,    // lock-manager wait
  kCpu = 4,     // compute-node CPU queue + service
  kBuffer = 5,  // buffer-pool miss path (disk / storage / RDMA fetch)
  kLog = 6,     // WAL / log-service append + group-commit wait
  kNet = 7,     // client round trips and link transfers
  kReplay = 8,  // replica log replay
  kLoad = 9,    // open-loop driver (schedule refill, dispatch waits)
};
inline constexpr int kLayerCount = 10;

const char* LayerName(Layer layer);

/// One recorded span. Times are simulated microseconds; `end_us` is -1
/// while the span is open. `name` must be a string literal (spans are
/// recorded on hot paths; no string copies).
struct Span {
  uint64_t track = 0;
  int64_t begin_us = 0;
  int64_t end_us = -1;
  Layer layer = Layer::kTxn;
  const char* name = "";
  /// Client-side transaction tag (TxnType) for kTxn root spans; -1 when
  /// untagged. The breakdown table groups by this.
  int32_t label = -1;
  /// kTxn root spans: the transaction reached a successful commit. Aborted
  /// and torn-down transactions stay false and are excluded from the
  /// latency breakdown (the PerformanceCollector also only records
  /// latencies for commits).
  bool committed = false;
};

/// Handle to an open span; epoch-checked so a scope that outlives a
/// Clear() cannot touch a recycled slot.
struct SpanHandle {
  uint64_t epoch = 0;
  size_t index = 0;
  bool valid = false;
};

/// Deterministic trace recorder, one instance per thread.
///
/// Each DES environment is single-threaded and driven entirely by simulated
/// time, so one recorder per thread, span ids handed out in execution
/// order, and sim-time timestamps make traces bit-identical across runs
/// with the same seed (enforced by a property test). Recording never
/// advances simulated time, so enabling tracing cannot change experiment
/// results.
///
/// `Get()` returns a *thread-local* singleton: the experiment-matrix runner
/// (src/runner/) executes one cell per worker thread, and every cell gets a
/// private recorder — enabling/clearing/exporting a trace in one cell can
/// never observe another cell's spans, with no locking on the hot recording
/// path. An environment (and everything spawned in it) must therefore stay
/// on the thread that created it; see sim::Environment's thread model note.
class TraceRecorder {
 public:
  static TraceRecorder& Get();

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// Runtime toggle (the matrix runner's trace/profile templates and the
  /// obs benches flip this).
  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Drops all spans and track state and invalidates outstanding handles.
  /// Benches call this between measurement cells.
  void Clear();

  /// Allocates a fresh track (a Chrome-trace "thread" lane). Track 0 is
  /// reserved for untracked activity.
  uint64_t NewTrack() { return next_track_++; }
  void SetTrackName(uint64_t track, std::string name);

  SpanHandle Begin(uint64_t track, Layer layer, const char* name,
                   sim::SimTime now, int32_t label = -1);
  void End(SpanHandle handle, sim::SimTime now);
  /// Tags a kTxn root span as successfully committed.
  void MarkCommitted(SpanHandle handle);
  /// Zero-duration marker event.
  void Instant(uint64_t track, Layer layer, const char* name,
               sim::SimTime now);

  const std::vector<Span>& spans() const { return spans_; }
  const std::map<uint64_t, std::string>& track_names() const {
    return track_names_;
  }
  uint64_t epoch() const { return epoch_; }
  size_t span_count() const { return spans_.size(); }

 private:
  bool Live(const SpanHandle& handle) const {
    return handle.valid && handle.epoch == epoch_ &&
           handle.index < spans_.size();
  }

  bool enabled_ = false;
  uint64_t epoch_ = 1;
  uint64_t next_track_ = 1;
  std::vector<Span> spans_;
  std::map<uint64_t, std::string> track_names_;
};

/// RAII span over a scope of a simulation coroutine. Safe to use around
/// co_await: begin/end read the environment clock at construction and
/// destruction of the frame-local object, which is exactly the span of
/// simulated time the scope covered.
///
/// The caller passes the thread's recorder, resolved once at a coarser
/// boundary, so no scope pays the out-of-line thread-local lookup:
/// long-lived components (compute nodes, links, the WAL, the lock table,
/// the open-loop driver) cache it at construction, and a scope records only
/// while `recorder->enabled()`. A transaction caches its recorder at Begin
/// only when tracing is on, so nullptr is the whole disabled-path cost
/// there. A span that began is always ended, even if tracing was switched
/// off meanwhile.
class CachedSpanScope {
 public:
  CachedSpanScope(TraceRecorder* recorder, sim::Environment* env,
                  uint64_t track, Layer layer, const char* name)
      : env_(env) {
    if (recorder != nullptr && recorder->enabled()) {
      recorder_ = recorder;
      handle_ = recorder->Begin(track, layer, name, env->Now());
    }
  }
  ~CachedSpanScope() {
    if (recorder_ != nullptr) recorder_->End(handle_, env_->Now());
  }

  CachedSpanScope(const CachedSpanScope&) = delete;
  CachedSpanScope& operator=(const CachedSpanScope&) = delete;

 private:
  sim::Environment* env_;
  TraceRecorder* recorder_ = nullptr;
  SpanHandle handle_;
};

}  // namespace cloudybench::obs

#endif  // CLOUDYBENCH_OBS_TRACE_H_

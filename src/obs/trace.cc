#include "obs/trace.h"

#include <utility>

namespace cloudybench::obs {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTxn:
      return "txn";
    case Layer::kOp:
      return "op";
    case Layer::kCommit:
      return "commit";
    case Layer::kLock:
      return "lock";
    case Layer::kCpu:
      return "cpu";
    case Layer::kBuffer:
      return "buffer";
    case Layer::kLog:
      return "log";
    case Layer::kNet:
      return "net";
    case Layer::kReplay:
      return "replay";
    case Layer::kLoad:
      return "load";
  }
  return "?";
}

TraceRecorder& TraceRecorder::Get() {
  // Thread-local, not process-global: the experiment-matrix runner executes
  // one deterministic simulation per worker thread, and each cell must see
  // a private recorder (enable/Clear/export without synchronization or
  // cross-cell span interleaving). Single-threaded binaries observe the
  // exact same semantics as before.
  thread_local TraceRecorder recorder;
  return recorder;
}

void TraceRecorder::Clear() {
  spans_.clear();
  track_names_.clear();
  next_track_ = 1;
  ++epoch_;
}

void TraceRecorder::SetTrackName(uint64_t track, std::string name) {
  if (!enabled()) return;
  track_names_[track] = std::move(name);
}

SpanHandle TraceRecorder::Begin(uint64_t track, Layer layer, const char* name,
                                sim::SimTime now, int32_t label) {
  if (!enabled()) return SpanHandle{};
  Span span;
  span.track = track;
  span.begin_us = now.us;
  span.layer = layer;
  span.name = name;
  span.label = label;
  spans_.push_back(span);
  return SpanHandle{epoch_, spans_.size() - 1, true};
}

void TraceRecorder::End(SpanHandle handle, sim::SimTime now) {
  if (!Live(handle)) return;
  Span& span = spans_[handle.index];
  if (span.end_us >= 0) return;  // already ended
  span.end_us = now.us;
}

void TraceRecorder::MarkCommitted(SpanHandle handle) {
  if (!Live(handle)) return;
  spans_[handle.index].committed = true;
}

void TraceRecorder::Instant(uint64_t track, Layer layer, const char* name,
                            sim::SimTime now) {
  SpanHandle handle = Begin(track, layer, name, now);
  End(handle, now);
}

}  // namespace cloudybench::obs

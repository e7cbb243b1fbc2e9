#ifndef CLOUDYBENCH_OBS_TIMELINE_H_
#define CLOUDYBENCH_OBS_TIMELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metric_registry.h"
#include "sim/environment.h"
#include "sim/sim_time.h"
#include "sim/task.h"

namespace cloudybench::obs {

/// One journal record: something notable happened at a simulated instant.
/// `scope` names the emitting object (metric-registry style, e.g.
/// "cluster.CDB4#0"), `kind` is a machine-readable verb namespaced by
/// subsystem ("failover.prepare", "autoscale.applied", "replay.backlog_hwm",
/// "capacity.fraction", "checkpoint.flush"), `detail` is a free-form human
/// note and `value` a numeric payload (target vCores, flushed pages,
/// backlog depth, capacity fraction — whatever the kind measures).
struct TimelineEvent {
  int64_t t_us = 0;
  std::string scope;
  std::string kind;
  std::string detail;
  double value = 0.0;
};

/// Timestamped telemetry for one experiment cell: the structured event
/// journal above plus append-only per-metric sample series filled in by the
/// TimelineSampler. Like TraceRecorder, `Get()` returns a *thread-local*
/// singleton so matrix-runner cells on different workers never share state,
/// and the recorded timelines survive the cell's cluster/environment
/// teardown — the runner exports the artifact after the cell returns.
///
/// Determinism contract: events are appended synchronously from simulation
/// code (recording never advances simulated time or schedules work), sample
/// timestamps are exact simulated microseconds, and the exporters serialize
/// in a placement-independent order — so for a given cell the timeline
/// bytes are identical at any --jobs count, which scripts/check.sh and
/// tests/timeline_test.cc enforce.
class Timeline {
 public:
  /// One sampled value of one metric. Times are exact simulated
  /// microseconds so CSV/JSONL serialization is byte-stable.
  struct SamplePoint {
    int64_t t_us = 0;
    double value = 0.0;
  };

  static Timeline& Get();

  Timeline() = default;
  Timeline(const Timeline&) = delete;
  Timeline& operator=(const Timeline&) = delete;

  /// Runtime toggle (benches and the runner flip this per cell).
  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Drops journal and samples. Benches/the runner call this between cells.
  void Clear();

  void Event(int64_t t_us, std::string scope, std::string kind,
             std::string detail, double value);
  /// Heterogeneous lookup: sampling an already-known metric (every tick
  /// after the first) never constructs a std::string key.
  void AddSample(std::string_view metric, int64_t t_us, double value);

  using SampleMap =
      std::map<std::string, std::vector<SamplePoint>, std::less<>>;

  const std::vector<TimelineEvent>& events() const { return events_; }
  const SampleMap& samples() const { return samples_; }
  size_t event_count() const { return events_.size(); }
  size_t sample_count() const;
  /// First event with this kind, nullptr when absent.
  const TimelineEvent* FindEvent(std::string_view kind) const;

 private:
  bool enabled_ = false;
  std::vector<TimelineEvent> events_;
  SampleMap samples_;
};

/// The journal hook every emitter calls. Synchronous append — recording
/// never advances simulated time, schedules DES events, or perturbs the
/// experiment; when the timeline is disabled the call folds to a single
/// predictable branch.
inline void EmitEvent(sim::Environment* env, std::string scope,
                      std::string kind, std::string detail = "",
                      double value = 0.0) {
  Timeline& timeline = Timeline::Get();
  if (!timeline.enabled()) return;
  timeline.Event(env->Now().us, std::move(scope), std::move(kind),
                 std::move(detail), value);
}

/// Periodic metric snapshotter: a sim process on a fixed cadence (default
/// 500 ms simulated) that copies every counter, gauge, series tail and
/// latency-histogram quantile (running p50/p99, as "<name>.p50"/"<name>.p99")
/// registered in the thread-local MetricRegistry into the Timeline's
/// per-metric sample series. Construct one per deployed cell (it needs the
/// cell's environment) and Start() it; the loop runs until the environment
/// is destroyed, and each tick is a no-op while the Timeline is disabled.
class TimelineSampler {
 public:
  explicit TimelineSampler(sim::Environment* env,
                           sim::SimTime interval = sim::Millis(500));

  TimelineSampler(const TimelineSampler&) = delete;
  TimelineSampler& operator=(const TimelineSampler&) = delete;

  /// Spawns the sampling loop (idempotent; no-op unless the Timeline is
  /// enabled, so disabled cells pay nothing — enable before deploying).
  void Start();

  /// One snapshot of the registry at the current simulated time. Exposed
  /// so cells can take a final sample at an exact end-of-run instant.
  void SampleOnce();

  sim::SimTime interval() const { return interval_; }

 private:
  sim::Process Loop();

  sim::Environment* env_;
  sim::SimTime interval_;
  bool started_ = false;
  /// Scratch key for derived histogram-quantile sample names
  /// ("<histogram>.p50"); reused across ticks so steady-state sampling of
  /// known metrics allocates nothing.
  std::string sample_name_;
};

}  // namespace cloudybench::obs

#endif  // CLOUDYBENCH_OBS_TIMELINE_H_

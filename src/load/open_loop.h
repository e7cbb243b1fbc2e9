#ifndef CLOUDYBENCH_LOAD_OPEN_LOOP_H_
#define CLOUDYBENCH_LOAD_OPEN_LOOP_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/cluster.h"
#include "core/sales_workload.h"
#include "load/arrival.h"
#include "sim/environment.h"
#include "sim/sim_time.h"

namespace cloudybench::load {

/// Knobs for one open-loop run. The defaults make a short, deterministic
/// cell; bench_saturation overrides horizon and the plan per ladder rung.
struct OpenLoopOptions {
  /// Root seed: the arrival schedule draws stream-split substreams of it
  /// (kArrivalStream) and every session gets SplitStream(seed,
  /// kSessionStream, arrival.seq) — one seed fully determines the run.
  uint64_t seed = 1;
  /// Arrivals are generated in [0, horizon); latencies and goodput are
  /// normalized by it.
  sim::SimTime horizon = sim::Seconds(10);
  /// Extra time after the horizon for in-flight sessions to finish before
  /// the measurement cuts off; stragglers still running then are counted
  /// as `incomplete`, never silently dropped.
  sim::SimTime drain = sim::Seconds(2);
  /// Cap on concurrently *executing* transaction coroutines. Sessions past
  /// the cap wait in the ready queue — their wait is part of their latency
  /// (measured from the scheduled arrival), exactly like connections
  /// queueing at a saturated endpoint. Coroutine frames exist only for
  /// executing transactions, so memory scales with this cap plus the
  /// pooled per-session state, not with total arrivals.
  int max_executing = 4096;
  /// Arrivals materialized per generator refill (a sliding window); the
  /// whole schedule is never resident.
  size_t batch = 4096;
  /// When set, a metrics snapshot (the "load." namespace) is exported here
  /// before teardown, mirroring OltpEvaluator.
  std::string metrics_export_path;
};

/// What an open-loop run measured. All latency quantiles are measured from
/// each transaction's *scheduled* time — the arrival instant for a
/// session's first transaction, completion + think for later ones — so a
/// stalled SUT accrues the queueing delay of every user who arrived during
/// the stall (no coordinated omission).
struct OpenLoopResult {
  /// Sessions admitted (== `generated` once the run passes its horizon).
  int64_t arrivals = 0;
  /// Arrivals the schedule produced.
  int64_t generated = 0;
  /// generated / horizon: the offered load the SUT was asked to absorb.
  double offered_tps = 0.0;
  /// commits / horizon: what it actually absorbed.
  double goodput_tps = 0.0;

  int64_t commits = 0;
  int64_t aborts = 0;
  int64_t unavailable = 0;
  /// Sessions still live at cutoff (horizon + drain).
  int64_t incomplete = 0;

  /// Client-perceived latency from the scheduled instant, milliseconds.
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  /// Scheduled-vs-admitted lag: how long past its scheduled instant each
  /// transaction waited for an executing slot. Zero while the driver keeps
  /// up; grows without bound once the offered load exceeds capacity.
  double lag_mean_ms = 0.0;
  double lag_p99_ms = 0.0;
  double lag_max_ms = 0.0;

  /// Live logical sessions, peak.
  int64_t inflight_hwm = 0;
  /// Concurrently executing transaction coroutines, peak (<= max_executing).
  int64_t executing_hwm = 0;
  /// Resident session values, peak — the bounded-memory contract:
  /// O(in-flight), independent of total arrivals. Every live session is one
  /// 32-byte value (queued, executing or parked), so this is inflight_hwm.
  int64_t session_pool_hwm = 0;
  /// Largest materialized slice of the arrival schedule (<= options.batch).
  int64_t schedule_window_hwm = 0;

  double horizon_seconds = 0.0;

  /// Per-arrival-stream quantiles, one entry per plan stream, read off the
  /// per-stream obs::Histogram pair (O(buckets) memory each; also exported
  /// as load.stream<k>.latency / .lag registry histograms).
  struct StreamStats {
    int64_t commits = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
    double lag_p99_ms = 0.0;
    double lag_max_ms = 0.0;
  };
  std::vector<StreamStats> streams;
};

/// Drives a TransactionSet open-loop: every scheduled arrival is admitted
/// as an independent logical session (`txns` transactions with `think`
/// between them) regardless of how the SUT is coping, which is what
/// distinguishes this driver from the closed-loop WorkloadManager — a slow
/// SUT faces a growing queue, not a politely waiting client pool.
///
/// Deterministic: one Environment, one event order; byte-identical results
/// for a given (plan, options.seed) at any --jobs count. Composable with
/// fault plans — arm a FaultInjector before calling Run and the arrival
/// schedule is unaffected (it pre-exists the faults by construction).
class OpenLoopDriver {
 public:
  /// Runs the plan to options.horizon + options.drain. `cluster` is handed
  /// to TransactionSet::RunOne untouched, so stub transaction sets (tests)
  /// may pass nullptr.
  static OpenLoopResult Run(sim::Environment* env, cloud::Cluster* cluster,
                            TransactionSet* txns, const ArrivalPlan& plan,
                            const OpenLoopOptions& options);
};

}  // namespace cloudybench::load

#endif  // CLOUDYBENCH_LOAD_OPEN_LOOP_H_

#ifndef CLOUDYBENCH_CORE_EVALUATORS_H_
#define CLOUDYBENCH_CORE_EVALUATORS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cloud/autoscaler.h"
#include "cloud/cluster.h"
#include "cloud/pricing.h"
#include "core/collector.h"
#include "core/patterns.h"
#include "core/sales_workload.h"
#include "sim/environment.h"
#include "util/stats.h"

namespace cloudybench {

/// ---- OLTP (throughput) evaluation — paper §III-B ------------------------

struct OltpResult {
  double mean_tps = 0;
  double p50_latency_ms = 0;
  double p99_latency_ms = 0;
  int64_t commits = 0;
  int64_t aborts = 0;
  /// Resource cost normalized to dollars per minute (Table V's unit).
  cloud::CostBreakdown cost_per_minute;
  double p_score = 0;
  double buffer_hit_rate = 0;
  /// Measurement window in absolute simulated seconds (for callers that
  /// need vendor actual-cost pricing over the same window).
  double window_start_s = 0;
  double window_end_s = 0;
};

class OltpEvaluator {
 public:
  struct Options {
    int concurrency = 100;
    sim::SimTime warmup = sim::Seconds(3);
    sim::SimTime measure = sim::Seconds(10);
    /// When non-empty, a MetricRegistry snapshot (JSONL) is written here at
    /// the end of the run, while the collector's and cluster's entries are
    /// still registered (RunOltpCell plumbs the runner's per-cell
    /// --metrics-template= path through).
    std::string metrics_export_path;
  };

  /// Drives `txns` at fixed concurrency against a loaded cluster and
  /// reports throughput, latency and P-Score.
  static OltpResult Run(sim::Environment* env, cloud::Cluster* cluster,
                        TransactionSet* txns, const Options& options);
};

/// ---- Elasticity evaluation — paper §III-C --------------------------------

struct ElasticityResult {
  std::vector<int> schedule;       // per-slot concurrency driven
  double mean_tps = 0;             // over the pattern window
  std::vector<double> slot_tps;    // per slot
  std::vector<double> slot_vcores; // mean allocated vCores per slot
  /// Total dollars over the cost window (execution + scaling), and the same
  /// normalized per minute for the E1 formula.
  cloud::CostBreakdown total_cost;
  cloud::CostBreakdown cost_per_minute;
  double e1_score = 0;
  std::vector<cloud::ScalingEvent> scaling_events;
  double pattern_seconds = 0;
  double cost_window_seconds = 0;
  double window_start_s = 0;
  double window_end_s = 0;
};

class ElasticityEvaluator {
 public:
  struct Options {
    /// Saturation concurrency; patterns scale as fractions of it (§II-C).
    int tau = 110;
    sim::SimTime slot = sim::Seconds(60);
    /// The paper costs a ten-minute window from pattern start so that slow
    /// scale-down (CDB1) keeps paying after the workload ended.
    int cost_window_slots = 10;
  };

  static ElasticityResult Run(sim::Environment* env, cloud::Cluster* cluster,
                              TransactionSet* txns,
                              ElasticityPattern pattern,
                              const Options& options);

  /// Same, with an explicit per-slot concurrency schedule (custom or
  /// Pareto-sampled patterns).
  static ElasticityResult RunSchedule(sim::Environment* env,
                                      cloud::Cluster* cluster,
                                      TransactionSet* txns,
                                      const std::vector<int>& schedule,
                                      const Options& options);
};

/// ---- Replication lag evaluation — paper §III-F ---------------------------

struct LagTimeResult {
  double insert_lag_ms = 0;
  double update_lag_ms = 0;
  double delete_lag_ms = 0;
  double c_score = 0;  // Eq. (6)
  int64_t records_applied = 0;
};

class LagTimeEvaluator {
 public:
  struct Options {
    int concurrency = 20;
    sim::SimTime warmup = sim::Seconds(2);
    sim::SimTime measure = sim::Seconds(10);
    /// The paper's IUD mixes: {(60,30,10),(100,0,0),(0,100,0),(0,0,100)}.
    int insert_pct = 60;
    int update_pct = 30;
    int delete_pct = 10;
    /// Seed of the IUD workload the evaluator drives.
    uint64_t seed = 42;
  };

  static LagTimeResult Run(sim::Environment* env, cloud::Cluster* cluster,
                           const Options& options);
};

/// ---- Fail-over evaluation — paper §III-E ---------------------------------

struct FailoverResult {
  /// Eq. (3) component: seconds from failure injection to service resume.
  double f_seconds = 0;
  /// Eq. (4) component: seconds from service resume to reaching the target
  /// TPS again.
  double r_seconds = 0;
  double pre_failure_tps = 0;
  double target_tps = 0;
  bool service_lost = false;   // sanity: the injection actually bit
  bool tps_recovered = false;
};

class FailoverEvaluator {
 public:
  struct Options {
    int concurrency = 150;
    sim::SimTime warmup = sim::Seconds(5);
    /// Fail the RW node (true) or an RO node (false).
    bool fail_rw = true;
    /// Common recovery target for all SUTs ("we set the same target TPS");
    /// <= 0 means 90% of this SUT's own pre-failure TPS.
    double target_tps = -1;
    sim::SimTime max_observation = sim::Seconds(120);
  };

  static FailoverResult Run(sim::Environment* env, cloud::Cluster* cluster,
                            TransactionSet* txns, const Options& options);
};

/// ---- Availability under injected faults — DESIGN.md §4g ------------------

struct AvailabilityResult {
  /// Mean committed TPS over the pre-fault half of the warmup tail.
  double baseline_tps = 0;
  /// Fraction (%) of TPS sampling windows with at least one commit, from
  /// fault start to the end of the measurement window.
  double availability_pct = 0;
  /// Mean committed TPS over that same window (goodput: shed/timed-out
  /// requests do not count).
  double goodput_tps = 0;
  /// p99 commit latency (ms) of transactions completing inside the fault
  /// window [fault_start, fault_end].
  double fault_p99_ms = 0;
  /// Seconds from the fault clearing until TPS sustains
  /// `target_fraction * baseline_tps`; the full remaining observation when
  /// it never does.
  double recovery_seconds = 0;
  bool recovered = false;
  int64_t commits = 0;
  int64_t fault_window_commits = 0;
};

/// Drives a fixed-concurrency workload across a fault window armed by the
/// caller and reports how much service survived. The fault schedule is
/// injected through the `arm` callback so this evaluator (cb_core) stays
/// independent of the fault library (cb_fault) that builds the schedules.
class AvailabilityEvaluator {
 public:
  struct Options {
    int concurrency = 100;
    sim::SimTime warmup = sim::Seconds(5);
    sim::SimTime measure = sim::Seconds(45);
    /// Fault window, relative to the start of the measurement window; used
    /// to bracket the in-fault latency capture and the recovery clock. Set
    /// from FaultPlan::FirstInjectAt / LastClearAt (plus recovery slack for
    /// crash kinds).
    sim::SimTime fault_start = sim::Seconds(5);
    sim::SimTime fault_end = sim::Seconds(15);
    double target_fraction = 0.9;
    /// Called once with the absolute base time of the measurement window;
    /// the caller arms its FaultInjector (or anything else) against it.
    std::function<void(sim::SimTime base)> arm;
  };

  static AvailabilityResult Run(sim::Environment* env,
                                cloud::Cluster* cluster, TransactionSet* txns,
                                const Options& options);
};

/// ---- tau calibration — paper §II-C ---------------------------------------

/// "We obtain the concurrency number tau where a tested database reaches
/// the resource limit, then we generate the patterns proportionally."
/// Sweeps concurrency geometrically on fresh deployments of `kind` and
/// returns the first level whose read-write TPS improves on the previous
/// level by less than `gain_threshold`.
int FindSaturationConcurrency(int64_t scale_factor,
                              const std::function<std::unique_ptr<cloud::Cluster>(
                                  sim::Environment*)>& make_cluster,
                              double gain_threshold = 0.05,
                              int max_concurrency = 640);

}  // namespace cloudybench

#endif  // CLOUDYBENCH_CORE_EVALUATORS_H_

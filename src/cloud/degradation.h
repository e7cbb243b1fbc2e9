#ifndef CLOUDYBENCH_CLOUD_DEGRADATION_H_
#define CLOUDYBENCH_CLOUD_DEGRADATION_H_

#include <cstdint>
#include <vector>

#include "cloud/compute_node.h"
#include "sim/environment.h"
#include "sim/sim_time.h"
#include "sim/task.h"

namespace cloudybench::cloud {

class Cluster;

/// SUT-side graceful-degradation policy (DESIGN.md §4g): how the cluster
/// bends instead of breaking under injected faults. Everything here is OFF
/// until Cluster::EnableDegradation is called — a cluster that never calls
/// it behaves bit-identically to a build without this subsystem, which the
/// fault determinism tests pin down.
struct DegradationPolicy {
  /// Deadline/backoff on buffer-miss fetches, armed on every node.
  FetchPolicy fetch;
  /// Root seed for the per-node backoff-jitter RNG streams; each node gets
  /// util::SplitSeed(fetch_seed, kJitterStream, node_index) — a dedicated
  /// stream-split substream so workload draws stay untouched and nearby
  /// roots can never alias across nodes.
  uint64_t fetch_seed = 0x5eedfa;

  /// RO circuit breaker: probe cadence, the replay-backlog level (records)
  /// beyond which an RO is considered degraded, and how long an opened
  /// breaker waits before a half-open probation probe.
  sim::SimTime probe_interval = sim::Millis(500);
  int64_t breaker_backlog_limit = 4000;
  sim::SimTime breaker_probation = sim::Seconds(2);

  /// RW admission-control shedding, with hysteresis on the CPU ready-queue
  /// length (ScalingTarget::cpu_waiting): shed above `shed_start_queue`,
  /// stop below `shed_stop_queue`.
  int shed_start_queue = 64;
  int shed_stop_queue = 24;
};

/// Periodic controller running the two degradation state machines:
///
///  * **Circuit breaker** per RO node — Closed -> Open when the node is
///    down or its replay backlog exceeds the limit (journaled as
///    "breaker.open"); Open -> HalfOpen after the probation delay
///    ("breaker.half_open"); HalfOpen -> Closed on a healthy probe
///    ("breaker.close") or straight back to Open on an unhealthy one.
///    Cluster::RouteRead() skips ROs whose breaker is Open.
///
///  * **Load shedding** on the current RW — SetShedding(true) when its CPU
///    ready queue passes the start watermark ("shed.start"),
///    SetShedding(false) below the stop watermark ("shed.stop").
///
/// Probes run on the cluster's deterministic event queue, so every breaker
/// transition lands at the same (time, seq) for a given seed and plan.
class DegradationController {
 public:
  enum class BreakerState { kClosed, kOpen, kHalfOpen };

  DegradationController(sim::Environment* env, Cluster* cluster,
                        DegradationPolicy policy);

  DegradationController(const DegradationController&) = delete;
  DegradationController& operator=(const DegradationController&) = delete;

  /// Spawns the probe loop (idempotent).
  void Start();

  /// RouteRead eligibility: Closed and HalfOpen admit reads (HalfOpen *is*
  /// the probation probe — real traffic, watched closely).
  bool ReadEligible(ComputeNode* node) const;
  BreakerState StateOf(ComputeNode* node) const;

  const DegradationPolicy& policy() const { return policy_; }
  int64_t breaker_opens() const { return breaker_opens_; }
  int64_t breaker_closes() const { return breaker_closes_; }

 private:
  struct Breaker {
    ComputeNode* node = nullptr;
    BreakerState state = BreakerState::kClosed;
    sim::SimTime opened_at{0};
  };

  sim::Process ProbeLoop();
  void ProbeOnce();
  /// Breaker health: node serving and its replayer (matched by replica
  /// table set, which survives promote/demote reshuffles) under the backlog
  /// limit.
  bool Healthy(ComputeNode* node) const;
  Breaker* FindOrAdd(ComputeNode* node);
  const Breaker* Find(ComputeNode* node) const;

  sim::Environment* env_;
  Cluster* cluster_;
  DegradationPolicy policy_;
  bool started_ = false;
  /// Deterministic vector (no hashing): a handful of nodes, linear scan.
  std::vector<Breaker> breakers_;
  ComputeNode* shedding_node_ = nullptr;
  int64_t breaker_opens_ = 0;
  int64_t breaker_closes_ = 0;
};

}  // namespace cloudybench::cloud

#endif  // CLOUDYBENCH_CLOUD_DEGRADATION_H_

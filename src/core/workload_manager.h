#ifndef CLOUDYBENCH_CORE_WORKLOAD_MANAGER_H_
#define CLOUDYBENCH_CORE_WORKLOAD_MANAGER_H_

#include <memory>
#include <vector>

#include "cloud/cluster.h"
#include "core/collector.h"
#include "core/sales_workload.h"
#include "sim/environment.h"

namespace cloudybench {

/// Spawns one client worker per unit of concurrency and drives the
/// TransactionSet in a closed loop (the paper's workload manager, §II).
///
/// Concurrency is adjustable at runtime — the elasticity and multi-tenancy
/// evaluators re-shape the worker pool at every time slot. Shrinking is
/// graceful: surplus workers finish their in-flight transaction and exit.
class WorkloadManager {
 public:
  /// `seed` 0 (the default) derives this manager's root seed from
  /// txns->NextManagerSeed() — a stream-split of txns->Seed() and a
  /// per-TransactionSet manager nonce — so a workload config's seed fully
  /// determines the run *and* two managers driving the same TransactionSet
  /// (multi-tenant sweeps, repeated evaluator phases) get disjoint worker
  /// seed streams. A non-zero `seed` pins the root directly; worker seeds
  /// are always WorkerSeed(root, index), never sequential arithmetic, so
  /// nearby explicit roots don't overlap either.
  WorkloadManager(sim::Environment* env, cloud::Cluster* cluster,
                  TransactionSet* txns, PerformanceCollector* collector,
                  uint64_t seed = 0);
  ~WorkloadManager();

  WorkloadManager(const WorkloadManager&) = delete;
  WorkloadManager& operator=(const WorkloadManager&) = delete;

  /// Target worker count; spawns or retires workers as needed.
  void SetConcurrency(int concurrency);
  int concurrency() const { return static_cast<int>(live_workers_); }

  /// Stops every worker (they drain their current transaction).
  void StopAll() { SetConcurrency(0); }

  /// The manager's resolved root seed (derived when constructed with 0).
  uint64_t seed() const { return seed_; }

  /// Worker `index`'s RNG seed under root `root`. Exposed so the seed
  /// regression tests can assert that distinct managers' worker streams
  /// never intersect.
  static uint64_t WorkerSeed(uint64_t root, uint64_t index);

 private:
  struct WorkerControl {
    bool stop = false;
  };

  sim::Process WorkerLoop(std::shared_ptr<WorkerControl> control,
                          uint64_t seed);

  sim::Environment* env_;
  cloud::Cluster* cluster_;
  TransactionSet* txns_;
  PerformanceCollector* collector_;
  uint64_t seed_;
  uint64_t spawned_ = 0;
  size_t live_workers_ = 0;
  std::vector<std::shared_ptr<WorkerControl>> active_;
};

}  // namespace cloudybench

#endif  // CLOUDYBENCH_CORE_WORKLOAD_MANAGER_H_

#include "core/workload_manager.h"

#include "util/logging.h"
#include "util/random.h"

namespace cloudybench {

uint64_t WorkloadManager::WorkerSeed(uint64_t root, uint64_t index) {
  return util::SplitSeed(root, util::kWorkerStream, index);
}

WorkloadManager::WorkloadManager(sim::Environment* env,
                                 cloud::Cluster* cluster,
                                 TransactionSet* txns,
                                 PerformanceCollector* collector,
                                 uint64_t seed)
    : env_(env),
      cluster_(cluster),
      txns_(txns),
      collector_(collector),
      seed_(seed != 0 ? seed : txns->NextManagerSeed()) {
  CB_CHECK(env != nullptr);
  CB_CHECK(cluster != nullptr);
  CB_CHECK(txns != nullptr);
  CB_CHECK(collector != nullptr);
}

WorkloadManager::~WorkloadManager() {
  for (auto& control : active_) control->stop = true;
}

void WorkloadManager::SetConcurrency(int concurrency) {
  CB_CHECK_GE(concurrency, 0);
  // Retire surplus workers...
  while (static_cast<int>(active_.size()) > concurrency) {
    active_.back()->stop = true;
    active_.pop_back();
  }
  // ...and spawn the deficit.
  while (static_cast<int>(active_.size()) < concurrency) {
    auto control = std::make_shared<WorkerControl>();
    active_.push_back(control);
    env_->Spawn(WorkerLoop(control, WorkerSeed(seed_, spawned_++)));
  }
}

sim::Process WorkloadManager::WorkerLoop(
    std::shared_ptr<WorkerControl> control, uint64_t seed) {
  ++live_workers_;
  util::Pcg32 rng(seed);
  while (!control->stop) {
    sim::SimTime start = env_->Now();
    TxnType type = TxnType::kOther;
    util::Status s = co_await txns_->RunOne(cluster_, rng, &type);
    double latency_ms = (env_->Now() - start).ToMillis();
    if (s.ok()) {
      collector_->RecordCommit(type, latency_ms);
    } else if (s.IsUnavailable()) {
      collector_->RecordUnavailable(type);
      // Client reconnect backoff during fail-over.
      co_await env_->Delay(sim::Millis(200));
    } else {
      collector_->RecordAbort(type);
      co_await env_->Delay(sim::Millis(1));
    }
  }
  --live_workers_;
}

}  // namespace cloudybench

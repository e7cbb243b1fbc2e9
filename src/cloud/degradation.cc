#include "cloud/degradation.h"

#include "cloud/cluster.h"
#include "obs/timeline.h"
#include "repl/replayer.h"
#include "util/logging.h"

namespace cloudybench::cloud {

DegradationController::DegradationController(sim::Environment* env,
                                             Cluster* cluster,
                                             DegradationPolicy policy)
    : env_(env), cluster_(cluster), policy_(policy) {
  CB_CHECK(env != nullptr);
  CB_CHECK(cluster != nullptr);
  CB_CHECK_GT(policy_.probe_interval.us, 0);
  CB_CHECK_GT(policy_.shed_start_queue, policy_.shed_stop_queue);
}

void DegradationController::Start() {
  if (started_) return;
  started_ = true;
  env_->Spawn(ProbeLoop());
}

sim::Process DegradationController::ProbeLoop() {
  for (;;) {
    co_await env_->Delay(policy_.probe_interval);
    ProbeOnce();
  }
}

bool DegradationController::Healthy(ComputeNode* node) const {
  if (!node->available()) return false;
  repl::Replayer* replayer = cluster_->ReplayerFor(node);
  return replayer == nullptr ||
         replayer->backlog() < policy_.breaker_backlog_limit;
}

DegradationController::Breaker* DegradationController::FindOrAdd(
    ComputeNode* node) {
  for (Breaker& b : breakers_) {
    if (b.node == node) return &b;
  }
  breakers_.push_back(Breaker{node, BreakerState::kClosed, sim::SimTime{0}});
  return &breakers_.back();
}

const DegradationController::Breaker* DegradationController::Find(
    ComputeNode* node) const {
  for (const Breaker& b : breakers_) {
    if (b.node == node) return &b;
  }
  return nullptr;
}

bool DegradationController::ReadEligible(ComputeNode* node) const {
  const Breaker* b = Find(node);
  return b == nullptr || b->state != BreakerState::kOpen;
}

DegradationController::BreakerState DegradationController::StateOf(
    ComputeNode* node) const {
  const Breaker* b = Find(node);
  return b == nullptr ? BreakerState::kClosed : b->state;
}

void DegradationController::ProbeOnce() {
  // ---- RO circuit breakers ----
  for (size_t i = 0; i < cluster_->ro_count(); ++i) {
    ComputeNode* node = cluster_->ro(i);
    Breaker* b = FindOrAdd(node);
    bool healthy = Healthy(node);
    switch (b->state) {
      case BreakerState::kClosed:
        if (!healthy) {
          b->state = BreakerState::kOpen;
          b->opened_at = env_->Now();
          ++breaker_opens_;
          obs::EmitEvent(env_, cluster_->ObsScope(), "breaker.open",
                         node->name(),
                         static_cast<double>(
                             cluster_->ReplayerFor(node) != nullptr
                                 ? cluster_->ReplayerFor(node)->backlog()
                                 : 0));
        }
        break;
      case BreakerState::kOpen:
        if (env_->Now() - b->opened_at >= policy_.breaker_probation) {
          b->state = BreakerState::kHalfOpen;
          obs::EmitEvent(env_, cluster_->ObsScope(), "breaker.half_open",
                         node->name());
        }
        break;
      case BreakerState::kHalfOpen:
        if (healthy) {
          b->state = BreakerState::kClosed;
          ++breaker_closes_;
          obs::EmitEvent(env_, cluster_->ObsScope(), "breaker.close",
                         node->name());
        } else {
          b->state = BreakerState::kOpen;
          b->opened_at = env_->Now();
          ++breaker_opens_;
          obs::EmitEvent(env_, cluster_->ObsScope(), "breaker.open",
                         node->name() + " (probation failed)");
        }
        break;
    }
  }

  // ---- RW load shedding ----
  ComputeNode* rw = cluster_->rw();
  if (shedding_node_ != nullptr && shedding_node_ != rw) {
    // A fail-over moved the RW role mid-shed; release the old node.
    shedding_node_->SetShedding(false);
    shedding_node_ = nullptr;
  }
  int waiting = rw->cpu_waiting();
  if (shedding_node_ == nullptr && waiting >= policy_.shed_start_queue) {
    rw->SetShedding(true);
    shedding_node_ = rw;
    obs::EmitEvent(env_, cluster_->ObsScope(), "shed.start", rw->name(),
                   static_cast<double>(waiting));
  } else if (shedding_node_ == rw && waiting <= policy_.shed_stop_queue) {
    rw->SetShedding(false);
    shedding_node_ = nullptr;
    obs::EmitEvent(env_, cluster_->ObsScope(), "shed.stop", rw->name(),
                   static_cast<double>(waiting));
  }
}

}  // namespace cloudybench::cloud

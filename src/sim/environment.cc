#include "sim/environment.h"

#include <utility>

namespace cloudybench::sim {

namespace internal_task {

void ScheduleHandleAt(Environment* env, SimTime at, std::coroutine_handle<> h) {
  env->ScheduleHandle(at, h);
}

SimTime EnvNow(Environment* env) { return env->Now(); }

void NotifyDetachedFinished(Environment* env, std::coroutine_handle<> h,
                            uint32_t live_index) {
  env->RemoveDetached(live_index);
  env->finished_.push_back(h);
}

}  // namespace internal_task

Environment::~Environment() {
  // Reclaim finished-but-uncollected frames first.
  CollectFinished();
  // Destroy still-suspended detached roots. Destroying a root frame also
  // destroys any inline-awaited child frames it owns, so the event queue may
  // hold dangling handles afterwards — we drop the queue without touching
  // them. Closures still parked in the slab are destroyed by ~CallSlab.
  for (const DetachedEntry& entry : detached_live_) {
    entry.handle.destroy();
  }
  detached_live_.clear();
}

void Environment::ScheduleHandle(SimTime at, std::coroutine_handle<> h) {
  CB_CHECK_GE(at.us, now_.us) << "cannot schedule into the past";
  if (at.us == now_.us) {
    ring_.push_back(Event{at.us, next_seq_++, h, 0});
    return;
  }
  queue_.Push(Event{at.us, next_seq_++, h, 0});
}

void Environment::ScheduleCall(SimTime at, std::function<void()> fn) {
  CB_CHECK_GE(at.us, now_.us) << "cannot schedule into the past";
  uint32_t slot = calls_.Put(std::move(fn));
  if (at.us == now_.us) {
    ring_.push_back(Event{at.us, next_seq_++, nullptr, slot});
    return;
  }
  queue_.Push(Event{at.us, next_seq_++, nullptr, slot});
}

void Environment::Spawn(Process process) {
  auto h = process.Release();
  CB_CHECK(h) << "spawning an empty process";
  auto& promise = h.promise();
  promise.env = this;
  promise.detached = true;
  promise.live_index = static_cast<uint32_t>(detached_live_.size());
  detached_live_.push_back(DetachedEntry{h, &promise});
  h.resume();        // run until the first suspension (or completion)
  CollectFinished();
}

void Environment::RemoveDetached(uint32_t index) {
  DetachedEntry& entry = detached_live_[index];
  entry = detached_live_.back();
  entry.promise->live_index = index;
  detached_live_.pop_back();
}

void Environment::CollectFinished() {
  while (!finished_.empty()) {
    std::coroutine_handle<> h = finished_.back();
    finished_.pop_back();
    h.destroy();
  }
}

void Environment::Run() {
  while (Step()) {
  }
}

void Environment::RunUntil(SimTime t) {
  CB_CHECK_GE(t.us, now_.us);
  while (StepUntil(t.us)) {
  }
  now_ = t;
}

}  // namespace cloudybench::sim

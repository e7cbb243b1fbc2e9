#ifndef CLOUDYBENCH_SIM_ENVIRONMENT_H_
#define CLOUDYBENCH_SIM_ENVIRONMENT_H_

#include <coroutine>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/event_heap.h"
#include "sim/sim_time.h"
#include "sim/task.h"

namespace cloudybench::sim {

/// Deterministic discrete-event simulation environment.
///
/// All simulated activity — workload workers, log replayers, autoscalers,
/// heartbeats — runs as coroutine processes scheduled on a single event
/// queue ordered by (time, insertion sequence). Identical seeds therefore
/// produce identical experiments, which the property tests rely on.
///
/// Typical experiment shape:
///
///   Environment env;
///   env.Spawn(WorkerLoop(&env, ...));
///   env.RunUntil(Seconds(600));   // the measurement window
///   // metrics read here; leftover processes reclaimed by ~Environment.
///
/// Thread model: an Environment is single-threaded and thread-affine — it
/// must be created, driven and destroyed on one thread, and everything it
/// spawns runs on that thread. Distinct Environments are fully independent,
/// which is what lets the experiment-matrix runner (src/runner/) execute
/// one environment per worker thread with no synchronization; the only
/// process-wide state an experiment touches (trace recorder, metric
/// registry) is thread-local for the same reason.
///
/// Hot-path layout (DESIGN.md §4f/§4i): events are 32-byte PODs in a
/// monotone radix queue keyed on time; ScheduleCall closures live in a
/// recycling slab and events carry only a slot index; detached-frame
/// bookkeeping is a swap-remove vector indexed from the promise. Events
/// scheduled at the *current* instant (waiter wakeups, zero-delay handoffs —
/// the majority in an OLTP cell) skip the queue entirely and go to a FIFO
/// ring drained before the clock advances. None of these change the (time, seq)
/// dispatch order, so simulated results are bit-identical to the naive
/// priority_queue implementation they replaced; see §4f for the ordering
/// proof.
class Environment {
 public:
  Environment() = default;
  ~Environment();

  Environment(const Environment&) = delete;
  Environment& operator=(const Environment&) = delete;

  SimTime Now() const { return now_; }

  /// Low-level: resume `h` at time `at` (>= Now()).
  void ScheduleHandle(SimTime at, std::coroutine_handle<> h);

  /// Runs `fn` at time `at`. Used for one-shot control actions (failure
  /// injection, timeouts) that are not coroutines themselves.
  void ScheduleCall(SimTime at, std::function<void()> fn);

  /// Starts a detached process, fire-and-forget: the environment owns and
  /// reclaims the frame, and nothing waits on it.
  void Spawn(Process process);

  /// Awaitable that suspends the caller for `d` of simulated time.
  auto Delay(SimTime d) {
    struct Awaiter {
      Environment* env;
      SimTime at;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        env->ScheduleHandle(at, h);
      }
      void await_resume() const noexcept {}
    };
    CB_CHECK_GE(d.us, 0);
    return Awaiter{this, now_ + d};
  }

  /// Dispatches the next event. Returns false when the queue is empty.
  /// Inline (StepUntil is defined below) — one schedule+dispatch round trip
  /// is the DES kernel's unit of work, and resources/locks step the
  /// environment from many translation units.
  bool Step() { return StepUntil(INT64_MAX); }

  /// Runs until the event queue drains.
  void Run();

  /// Dispatches every event with time <= t, then advances the clock to t.
  /// Events beyond t stay queued (and are discarded at teardown if the
  /// experiment ends here) — this is how experiments define a measurement
  /// window without requiring every process to support clean shutdown.
  void RunUntil(SimTime t);
  void RunFor(SimTime d) { RunUntil(now_ + d); }

  size_t pending_events() const {
    return queue_.size() + (ring_.size() - ring_head_);
  }
  uint64_t dispatched_events() const { return dispatched_; }

 private:
  friend void internal_task::NotifyDetachedFinished(Environment*,
                                                    std::coroutine_handle<>,
                                                    uint32_t);

  /// A live detached root frame plus its promise, so completion can
  /// swap-remove by index (the promise records its slot) without hashing.
  struct DetachedEntry {
    std::coroutine_handle<> handle;
    internal_task::PromiseBase* promise;
  };

  /// Dispatches the next event if it is due at or before `limit_us`.
  bool StepUntil(int64_t limit_us);    // inline, below
  void DispatchEvent(const Event& ev);  // inline, below
  void CollectFinished();               // out-of-line slow path
  void RemoveDetached(uint32_t index);

  SimTime now_{0};
  uint64_t next_seq_ = 0;
  uint64_t dispatched_ = 0;
  // Events later than the instant they were scheduled at. Its refills
  // never move its base past now_ (they happen only on dispatch).
  EventQueue queue_;
  // Same-tick events in FIFO order (== seq order: all of them were created
  // at the current instant, after every queued event stamped with this
  // time). Invariant: every ring entry has at_us == now_.us, because the
  // ring is drained before the clock is allowed to advance.
  std::vector<Event> ring_;
  size_t ring_head_ = 0;
  CallSlab calls_;
  // Frames of detached processes that reached final suspend and can be
  // destroyed once the current dispatch step unwinds.
  std::vector<std::coroutine_handle<>> finished_;
  // Live detached frames, destroyed at teardown if still suspended.
  std::vector<DetachedEntry> detached_live_;
};

inline void Environment::DispatchEvent(const Event& ev) {
  now_ = SimTime{ev.at_us};
  ++dispatched_;
  if (ev.handle) {
    ev.handle.resume();
  } else {
    // Move the closure out before invoking so the slot is immediately
    // recyclable (the call itself may schedule more calls).
    std::function<void()> fn = calls_.Take(ev.fn_slot);
    fn();
  }
  if (!finished_.empty()) CollectFinished();
}

inline bool Environment::StepUntil(int64_t limit_us) {
  // Dispatch order at the current instant: queued events stamped now_ first
  // (they were scheduled before the clock reached now_, so they carry
  // smaller seqs than anything in the ring), then the ring in FIFO order.
  // Only when both are out of same-tick work does the queue refill and
  // advance the clock. This reproduces the (at_us, seq) total order
  // exactly. Queued events at now_ all sit in the queue's bucket 0, which
  // is non-empty only while its base is now_.
  Event ev;
  if (queue_.PopBase(&ev)) {
    DispatchEvent(ev);
    return true;
  }
  if (ring_head_ < ring_.size()) {
    ev = ring_[ring_head_++];
    if (ring_head_ == ring_.size()) {
      ring_.clear();
      ring_head_ = 0;
    }
    DispatchEvent(ev);
    return true;
  }
  if (!queue_.PopNext(limit_us, &ev)) return false;
  DispatchEvent(ev);
  return true;
}

}  // namespace cloudybench::sim

#endif  // CLOUDYBENCH_SIM_ENVIRONMENT_H_

#ifndef CLOUDYBENCH_SIM_RESOURCE_H_
#define CLOUDYBENCH_SIM_RESOURCE_H_

#include <cmath>
#include <coroutine>
#include <deque>

#include "sim/environment.h"
#include "sim/fast_call.h"
#include "sim/sim_time.h"
#include "sim/task.h"

namespace cloudybench::sim {

/// A pool of CPU execution slots whose total capacity (in vCores) can be
/// changed at runtime — this is what an autoscaler scales.
///
/// capacity -> slots/speed mapping: slots = ceil(capacity), each slot runs at
/// speed capacity/slots <= 1, so a 0.5-vCore serverless instance is one slot
/// at half speed and a 2.5-vCore instance is three slots at 0.833x. Capacity
/// zero (paused database, CDB3's scale-to-zero) grants nothing until raised.
///
/// `Consume(demand)` is the workhorse: queue FIFO for a slot, hold it for
/// demand/speed of simulated time, release. Busy core-seconds are accounted
/// for utilization metering.
class SlotResource {
 public:
  SlotResource(Environment* env, double capacity);

  SlotResource(const SlotResource&) = delete;
  SlotResource& operator=(const SlotResource&) = delete;

  double capacity() const { return capacity_; }
  int slots() const { return slots_; }
  /// Per-slot speed multiplier in (0, 1]; valid only when slots() > 0.
  double speed() const;

  /// Changes capacity; newly freed slots are granted to FIFO waiters at the
  /// current instant. In-flight holders are unaffected (their speed was
  /// captured at grant time).
  void SetCapacity(double capacity);

  /// Executes `demand` core-microseconds of work. The awaiting coroutine is
  /// suspended for queueing time + demand/speed.
  ///
  /// With a slot free and nobody queued, the grant happens at the call and
  /// the FastCall is one scheduled resume at now + demand/speed, with busy
  /// accounting and the release on that resume: no coroutine frame. That is
  /// the same event, at the same point of the same dispatch step, as the
  /// queued path's uncontended run (grant, one delay event, release), so
  /// the simulation is bit-identical either way. A contended resource runs
  /// the queued coroutine, which keeps the two-step grant -> delay event
  /// order of a waiter.
  FastCall<void> Consume(SimTime demand) {
    CB_CHECK_GE(demand.us, 0);
    if (!waiting_.empty() || active_ >= slots_) return ConsumeQueued(demand);
    ++active_;
    return FastCall<void>::ResumeAt(env_->Now() + ServiceTime(demand),
                                    &SlotResource::FinishConsume, this,
                                    demand.us);
  }

  int active() const { return active_; }
  size_t waiting() const { return waiting_.size(); }

  /// Total core-seconds of work completed so far (for utilization = delta
  /// busy / (capacity * delta time)).
  double busy_core_seconds() const { return busy_core_seconds_; }

 private:
  void GrantWaiters();
  /// Service time of `demand` at the current per-slot speed. Speed is
  /// captured at grant time; a capacity change mid-service does not
  /// retroactively stretch in-flight work (documented approximation).
  SimTime ServiceTime(SimTime demand) const {
    return SimTime{
        static_cast<int64_t>(static_cast<double>(demand.us) / speed_)};
  }
  /// Takes a slot, or queues FIFO until GrantWaiters() takes one for the
  /// caller. Every granted Acquire() pairs with exactly one Release().
  auto Acquire() {
    struct Awaiter {
      SlotResource* r;
      bool await_ready() noexcept {
        if (r->waiting_.empty() && r->active_ < r->slots_) {
          ++r->active_;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        r->waiting_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }
  void Release();
  /// Consume() behind a FIFO of waiters.
  Task<void> ConsumeQueued(SimTime demand);
  /// End of a granted Consume(): account the work, free the slot.
  static void FinishConsume(void* self, int64_t demand_us);

  Environment* env_;
  double capacity_ = 0.0;
  int slots_ = 0;
  /// capacity_ / slots_, kept while slots_ is 0 so a holder granted
  /// before a pause still has its speed.
  double speed_ = 0.0;
  int active_ = 0;
  double busy_core_seconds_ = 0.0;
  std::deque<std::coroutine_handle<>> waiting_;
};

/// A token-bucket rate limit with units/second throughput and deterministic
/// FIFO reservations — models an IOPS budget or a network link's bandwidth.
///
/// Acquire(n) computes the caller's completion time on a virtual queue
/// (reservations serialize at `rate`); the caller is delayed until then.
class RateResource {
 public:
  RateResource(Environment* env, double rate_per_second);

  RateResource(const RateResource&) = delete;
  RateResource& operator=(const RateResource&) = delete;

  double rate() const { return rate_; }
  /// Rate changes apply to future reservations.
  void SetRate(double rate_per_second);

  /// Reserves `units` of throughput and suspends until they are granted.
  Task<void> Acquire(double units);

  /// Synchronous FIFO reservation: advances the virtual queue exactly as
  /// Acquire() would and returns the grant instant without suspending the
  /// caller. This is the batched-sender path (replication shipping): one
  /// coroutine can reserve a whole wave of messages at the current instant
  /// and later deliver each at its own grant time, with timing identical to
  /// one coroutine per message.
  SimTime Reserve(double units) {
    CB_CHECK_GE(units, 0.0);
    SimTime start = next_free_ > env_->Now() ? next_free_ : env_->Now();
    next_free_ = start + Seconds(units / rate_);
    consumed_ += units;
    return next_free_;
  }

  /// Total units consumed (for metering, e.g. used IOPS).
  double consumed() const { return consumed_; }

  /// Whether an Acquire issued now would have to wait (backlogged device).
  bool backlogged() const { return next_free_ > env_->Now(); }

  /// Deterministic completion estimate for an Acquire(units) issued now,
  /// without reserving anything: current virtual-queue backlog plus the
  /// units' own service time. Because reservations are FIFO and the rate
  /// only changes between reservations, the estimate is exact for the next
  /// caller — which is what lets deadline-based timeouts (graceful
  /// degradation, src/fault) decide *before* awaiting, since the DES has no
  /// coroutine cancellation.
  SimTime EstimatedWait(double units) const {
    SimTime queue = next_free_ > env_->Now() ? next_free_ - env_->Now()
                                             : SimTime{0};
    return queue + Seconds(units / rate_);
  }

 private:
  Environment* env_;
  double rate_;
  double consumed_ = 0.0;
  SimTime next_free_{0};
};

}  // namespace cloudybench::sim

#endif  // CLOUDYBENCH_SIM_RESOURCE_H_

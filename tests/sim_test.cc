// Tests for the discrete-event simulation kernel: event ordering, coroutine
// processes, inline task calls, waiters, and the two resource types.

#include <algorithm>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/environment.h"
#include "sim/pool.h"
#include "sim/resource.h"
#include "sim/sim_time.h"
#include "sim/task.h"
#include "util/random.h"

namespace cloudybench::sim {
namespace {

// ------------------------------------------------------------- SimTime

TEST(SimTimeTest, ConstructorsAndArithmetic) {
  EXPECT_EQ(Micros(5).us, 5);
  EXPECT_EQ(Millis(2).us, 2000);
  EXPECT_EQ(Seconds(1.5).us, 1'500'000);
  EXPECT_EQ(Minutes(2).us, 120'000'000);
  EXPECT_EQ((Seconds(1) + Millis(500)).ToSeconds(), 1.5);
  EXPECT_EQ((Seconds(2) - Seconds(1)).us, 1'000'000);
  EXPECT_LT(Seconds(1), Seconds(2));
  EXPECT_EQ(Seconds(4) * 0.5, Seconds(2));
}

// -------------------------------------------------------- Event ordering

TEST(EnvironmentTest, CallsRunInTimeOrder) {
  Environment env;
  std::vector<int> order;
  env.ScheduleCall(Seconds(3), [&] { order.push_back(3); });
  env.ScheduleCall(Seconds(1), [&] { order.push_back(1); });
  env.ScheduleCall(Seconds(2), [&] { order.push_back(2); });
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(env.Now(), Seconds(3));
}

TEST(EnvironmentTest, SameTimeIsFifo) {
  Environment env;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    env.ScheduleCall(Seconds(1), [&order, i] { order.push_back(i); });
  }
  env.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EnvironmentTest, RunUntilStopsAtBoundary) {
  Environment env;
  int fired = 0;
  env.ScheduleCall(Seconds(1), [&] { ++fired; });
  env.ScheduleCall(Seconds(5), [&] { ++fired; });
  env.RunUntil(Seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(env.Now(), Seconds(2));
  EXPECT_EQ(env.pending_events(), 1u);
  env.RunFor(Seconds(10));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(env.Now(), Seconds(12));
}

// ------------------------------------------------------------ Processes

Process DelayTwice(Environment* env, std::vector<double>* log) {
  log->push_back(env->Now().ToSeconds());
  co_await env->Delay(Seconds(1));
  log->push_back(env->Now().ToSeconds());
  co_await env->Delay(Seconds(2));
  log->push_back(env->Now().ToSeconds());
}

TEST(ProcessTest, DelaysAdvanceVirtualTime) {
  Environment env;
  std::vector<double> log;
  FrameArena::Stats before = FrameArena::ThreadStats();
  env.Spawn(DelayTwice(&env, &log));
  EXPECT_EQ(FrameArena::ThreadStats().recycled, before.recycled);
  env.Run();
  EXPECT_EQ(log, (std::vector<double>{0.0, 1.0, 3.0}));
  // The finished frame went back to the arena.
  EXPECT_EQ(FrameArena::ThreadStats().recycled, before.recycled + 1);
}

Process Immediate(int* out) {
  *out = 7;
  co_return;
}

TEST(ProcessTest, ProcessWithNoAwaitCompletesAtSpawn) {
  Environment env;
  int v = 0;
  FrameArena::Stats before = FrameArena::ThreadStats();
  env.Spawn(Immediate(&v));
  EXPECT_EQ(v, 7);
  // Spawn reclaims a frame that finished before its first suspension.
  EXPECT_EQ(FrameArena::ThreadStats().recycled, before.recycled + 1);
}

// Inline Task<T> calls.

Task<int> AddAfterDelay(Environment* env, int a, int b) {
  co_await env->Delay(Millis(10));
  co_return a + b;
}

Process CallerProcess(Environment* env, int* out, double* t) {
  int sum = co_await AddAfterDelay(env, 2, 3);
  int sum2 = co_await AddAfterDelay(env, sum, 10);
  *out = sum2;
  *t = env->Now().ToSeconds();
}

TEST(TaskTest, InlineCallsReturnValuesAndTakeSimTime) {
  Environment env;
  int out = 0;
  double t = 0;
  env.Spawn(CallerProcess(&env, &out, &t));
  env.Run();
  EXPECT_EQ(out, 15);
  EXPECT_DOUBLE_EQ(t, 0.02);
}

TEST(TaskTest, UnstartedTaskIsDestroyedCleanly) {
  Environment env;
  {
    Task<int> t = AddAfterDelay(&env, 1, 2);
    // never awaited, never spawned
  }
  SUCCEED();
}

TEST(EnvironmentTest, TeardownReclaimsRunningProcesses) {
  std::vector<double> log;
  {
    Environment env;
    env.Spawn(DelayTwice(&env, &log));
    env.RunUntil(Millis(500));  // process still pending its first delay
  }
  EXPECT_EQ(log.size(), 1u);  // no crash, no further progress
}

// --------------------------------------------------------------- Waiter

Process AwaitWaiter(Waiter* w, int* code, Environment* env, double* t) {
  *code = co_await *w;
  *t = env->Now().ToSeconds();
}

TEST(WaiterTest, CompletionResumesWithCode) {
  Environment env;
  Waiter w(&env);
  int code = -1;
  double t = -1;
  env.Spawn(AwaitWaiter(&w, &code, &env, &t));
  env.ScheduleCall(Seconds(2), [&] { w.Complete(42); });
  env.Run();
  EXPECT_EQ(code, 42);
  EXPECT_DOUBLE_EQ(t, 2.0);
}

TEST(WaiterTest, CompleteBeforeAwaitIsImmediate) {
  Environment env;
  Waiter w(&env);
  w.Complete(5);
  w.Complete(9);  // first completion wins
  int code = -1;
  double t = -1;
  env.Spawn(AwaitWaiter(&w, &code, &env, &t));
  env.Run();
  EXPECT_EQ(code, 5);
  EXPECT_DOUBLE_EQ(t, 0.0);
}

// --------------------------------------------------------- SlotResource

Process ConsumeCpu(SlotResource* cpu, SimTime demand, double* done_at,
                   Environment* env) {
  co_await cpu->Consume(demand);
  *done_at = env->Now().ToSeconds();
}

TEST(SlotResourceTest, SingleSlotSerializesWork) {
  Environment env;
  SlotResource cpu(&env, 1.0);
  double t1 = 0, t2 = 0;
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t1, &env));
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t2, &env));
  env.Run();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 2.0);
  EXPECT_DOUBLE_EQ(cpu.busy_core_seconds(), 2.0);
}

TEST(SlotResourceTest, ParallelSlotsOverlap) {
  Environment env;
  SlotResource cpu(&env, 2.0);
  double t1 = 0, t2 = 0, t3 = 0;
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t1, &env));
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t2, &env));
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t3, &env));
  env.Run();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 1.0);
  EXPECT_DOUBLE_EQ(t3, 2.0);
}

TEST(SlotResourceTest, FractionalCapacityStretchesService) {
  Environment env;
  SlotResource cpu(&env, 0.5);  // one slot at half speed
  EXPECT_EQ(cpu.slots(), 1);
  EXPECT_DOUBLE_EQ(cpu.speed(), 0.5);
  double t = 0;
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t, &env));
  env.Run();
  EXPECT_DOUBLE_EQ(t, 2.0);
  EXPECT_DOUBLE_EQ(cpu.busy_core_seconds(), 1.0);  // work, not wall time
}

TEST(SlotResourceTest, CapacityMapping) {
  Environment env;
  SlotResource a(&env, 4.0);
  EXPECT_EQ(a.slots(), 4);
  EXPECT_DOUBLE_EQ(a.speed(), 1.0);
  SlotResource b(&env, 2.5);
  EXPECT_EQ(b.slots(), 3);
  EXPECT_NEAR(b.speed(), 2.5 / 3, 1e-12);
  SlotResource c(&env, 0.0);
  EXPECT_EQ(c.slots(), 0);
}

TEST(SlotResourceTest, ZeroCapacityPausesUntilRaised) {
  Environment env;
  SlotResource cpu(&env, 0.0);
  double t = -1;
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t, &env));
  env.RunUntil(Seconds(10));
  EXPECT_DOUBLE_EQ(t, -1);  // still paused
  EXPECT_EQ(cpu.waiting(), 1u);
  env.ScheduleCall(Seconds(10), [&] { cpu.SetCapacity(1.0); });
  env.Run();
  EXPECT_DOUBLE_EQ(t, 11.0);
}

TEST(SlotResourceTest, CapacityIncreaseDrainsQueue) {
  Environment env;
  SlotResource cpu(&env, 1.0);
  std::vector<double> done(4, 0);
  for (int i = 0; i < 4; ++i) {
    env.Spawn(ConsumeCpu(&cpu, Seconds(1), &done[static_cast<size_t>(i)], &env));
  }
  env.ScheduleCall(Millis(1), [&] { cpu.SetCapacity(4.0); });
  env.Run();
  // First one started immediately; the rest start at 1ms on the new slots.
  EXPECT_DOUBLE_EQ(done[0], 1.0);
  EXPECT_NEAR(done[1], 1.001, 1e-9);
  EXPECT_NEAR(done[2], 1.001, 1e-9);
  EXPECT_NEAR(done[3], 1.001, 1e-9);
}

// A consumer that arrives `start` into the run, consumes `demand` and logs
// (tag, completion time in ms).
Process TimedConsumer(Environment* env, SlotResource* cpu, SimTime start,
                      SimTime demand, int tag,
                      std::vector<std::pair<int, int64_t>>* done) {
  if (start.us > 0) co_await env->Delay(start);
  co_await cpu->Consume(demand);
  done->push_back({tag, env->Now().us / 1000});
}

TEST(SlotResourceTest, FreeSlotAndQueuedConsumersKeepFifoTimesAndOrder) {
  Environment env;
  SlotResource cpu(&env, 2.0);  // two slots at full speed
  std::vector<std::pair<int, int64_t>> done;
  struct Arrival {
    int tag;
    int64_t start_ms;
    int64_t demand_ms;
  };
  // Tags 1, 2, 5, 6 and 7 find a free slot (one scheduled resume, no
  // frame); 3, 4 and 8 queue behind busy slots (the queued coroutine).
  const Arrival arrivals[] = {
      {1, 0, 10},   // slot A, done 10
      {2, 0, 30},   // slot B, done 30
      {3, 0, 5},    // queued; granted at 10 when 1 releases, done 15
      {4, 12, 0},   // queued behind 2 and 3; granted at 15, zero demand
      {5, 20, 4},   // free slot, done 24
      {6, 30, 1},   // at 30 after 2's release (scheduled earlier), done 31
      {7, 30, 2},   // the other slot at 30, done 32
      {8, 30, 1},   // queued; granted at 31 when 6 releases, done 32
  };
  FrameArena::Stats before = FrameArena::ThreadStats();
  for (const Arrival& a : arrivals) {
    env.Spawn(TimedConsumer(&env, &cpu, Millis(a.start_ms),
                            Millis(a.demand_ms), a.tag, &done));
  }
  env.Run();
  FrameArena::Stats after = FrameArena::ThreadStats();
  // Same-instant completions resolve in (at_us, seq) order: 3 was
  // scheduled before 4 was granted; 7's resume at 32 was scheduled at 30,
  // 8's at 31.
  const std::vector<std::pair<int, int64_t>> expected = {
      {1, 10}, {3, 15}, {4, 15}, {5, 24}, {2, 30}, {6, 31}, {7, 32}, {8, 32}};
  EXPECT_EQ(done, expected);
  EXPECT_NEAR(cpu.busy_core_seconds(), 0.053, 1e-12);
  EXPECT_EQ(cpu.active(), 0);
  EXPECT_EQ(cpu.waiting(), 0u);
  // Eight consumer processes plus one coroutine per queued Consume.
  EXPECT_EQ((after.fresh + after.reused) - (before.fresh + before.reused),
            8u + 3u);
}

// --------------------------------------------------------- RateResource

Process AcquireRate(RateResource* r, double units, double* done_at,
                    Environment* env) {
  co_await r->Acquire(units);
  *done_at = env->Now().ToSeconds();
}

TEST(RateResourceTest, SerializesAtConfiguredRate) {
  Environment env;
  RateResource iops(&env, 100.0);  // 100 units/sec
  double t1 = 0, t2 = 0;
  env.Spawn(AcquireRate(&iops, 50, &t1, &env));
  env.Spawn(AcquireRate(&iops, 50, &t2, &env));
  env.Run();
  EXPECT_DOUBLE_EQ(t1, 0.5);
  EXPECT_DOUBLE_EQ(t2, 1.0);
  EXPECT_DOUBLE_EQ(iops.consumed(), 100.0);
}

TEST(RateResourceTest, IdlePeriodsDoNotAccumulateCredit) {
  Environment env;
  RateResource r(&env, 10.0);
  double t = 0;
  env.ScheduleCall(Seconds(5), [&] {
    env.Spawn(AcquireRate(&r, 10, &t, &env));
  });
  env.Run();
  EXPECT_DOUBLE_EQ(t, 6.0);  // starts at 5, takes 1s
}

TEST(RateResourceTest, RateChangeAppliesToFutureReservations) {
  Environment env;
  RateResource r(&env, 10.0);
  double t1 = 0, t2 = 0;
  env.Spawn(AcquireRate(&r, 10, &t1, &env));       // 1s at rate 10
  env.ScheduleCall(Seconds(1), [&] {
    r.SetRate(100.0);
    env.Spawn(AcquireRate(&r, 10, &t2, &env));     // 0.1s at rate 100
  });
  env.Run();
  EXPECT_DOUBLE_EQ(t1, 1.0);
  EXPECT_DOUBLE_EQ(t2, 1.1);
}

TEST(RateResourceTest, BackloggedReflectsQueue) {
  Environment env;
  RateResource r(&env, 1.0);
  EXPECT_FALSE(r.backlogged());
  double t = 0;
  env.Spawn(AcquireRate(&r, 10, &t, &env));
  EXPECT_TRUE(r.backlogged());
  env.Run();
  EXPECT_FALSE(r.backlogged());
}

// ------------------------------------------------------------ Determinism

Process Mixed(Environment* env, SlotResource* cpu, RateResource* io,
              uint64_t seed, std::vector<double>* trace) {
  util::Pcg32 rng(seed);
  for (int i = 0; i < 20; ++i) {
    co_await cpu->Consume(Micros(static_cast<int64_t>(rng.NextBounded(1000)) + 1));
    co_await io->Acquire(static_cast<double>(rng.NextBounded(5)) + 1);
    trace->push_back(env->Now().ToSeconds());
  }
}

std::vector<double> RunMixed(uint64_t seed) {
  Environment env;
  SlotResource cpu(&env, 2.0);
  RateResource io(&env, 1000.0);
  std::vector<double> trace;
  for (int w = 0; w < 4; ++w) {
    env.Spawn(Mixed(&env, &cpu, &io, seed + static_cast<uint64_t>(w), &trace));
  }
  env.Run();
  return trace;
}

TEST(DeterminismTest, IdenticalSeedsIdenticalTraces) {
  EXPECT_EQ(RunMixed(42), RunMixed(42));
  EXPECT_NE(RunMixed(42), RunMixed(43));
}

}  // namespace
}  // namespace cloudybench::sim

namespace cloudybench::sim {
namespace {

// ------------------------------------------------------- kernel extras

TEST(EnvironmentTest, PendingAndDispatchedCounters) {
  Environment env;
  EXPECT_EQ(env.pending_events(), 0u);
  env.ScheduleCall(Seconds(1), [] {});
  env.ScheduleCall(Seconds(2), [] {});
  EXPECT_EQ(env.pending_events(), 2u);
  uint64_t before = env.dispatched_events();
  EXPECT_TRUE(env.Step());
  EXPECT_EQ(env.pending_events(), 1u);
  EXPECT_EQ(env.dispatched_events(), before + 1);
  env.Run();
  EXPECT_FALSE(env.Step());  // empty queue
}

TEST(EnvironmentTest, RunForAccumulates) {
  Environment env;
  env.RunFor(Seconds(3));
  env.RunFor(Seconds(4));
  EXPECT_EQ(env.Now(), Seconds(7));
}

TEST(TaskTest, MoveTransfersOwnership) {
  Environment env;
  Task<int> a = [](Environment* e) -> Task<int> {
    co_await e->Delay(Seconds(1));
    co_return 9;
  }(&env);
  Task<int> b = std::move(a);
  Task<int> c = [](Environment*) -> Task<int> { co_return 1; }(&env);
  c = std::move(b);  // move-assign destroys c's old frame cleanly
  // c is never started; ~Task reclaims the frame without leaks or crashes.
  SUCCEED();
}

TEST(SlotResourceTest, BusyAccountingAcrossCapacityChange) {
  Environment env;
  SlotResource cpu(&env, 2.0);
  double t1 = 0, t2 = 0, t3 = 0;
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t1, &env));
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t2, &env));
  env.Spawn(ConsumeCpu(&cpu, Seconds(1), &t3, &env));  // queued
  env.ScheduleCall(Millis(100), [&] { cpu.SetCapacity(1.0); });
  env.Run();
  // Busy core-seconds reflect work done (3 x 1s of demand), regardless of
  // when capacity changed.
  EXPECT_DOUBLE_EQ(cpu.busy_core_seconds(), 3.0);
  EXPECT_EQ(cpu.active(), 0);
  EXPECT_EQ(cpu.waiting(), 0u);
}

TEST(RateResourceTest, ZeroUnitsCostNothing) {
  Environment env;
  RateResource r(&env, 10.0);
  double t = -1;
  env.Spawn(AcquireRate(&r, 0, &t, &env));
  env.Run();
  EXPECT_DOUBLE_EQ(t, 0.0);
  EXPECT_DOUBLE_EQ(r.consumed(), 0.0);
}

// ------------------------------------------------- event queue order

Process RecordAfterDelay(Environment* env, SimTime at, std::vector<int>* order,
                         int tag) {
  co_await env->Delay(at);
  order->push_back(tag);
}

TEST(SchedulerHeapTest, SameTimestampEventsDispatchInScheduleOrder) {
  // Property test for the indexed-heap rewrite: over random interleavings of
  // ScheduleCall and Spawn (whose first Delay goes through ScheduleHandle)
  // at heavily colliding timestamps, dispatch order must equal a stable sort
  // of schedule order by time — the (time, seq) total-order contract that
  // makes results independent of the queue's internal layout.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    util::Pcg32 rng(seed);
    Environment env;
    std::vector<int> order;
    std::vector<std::pair<int64_t, int>> expected;  // (time_us, tag)
    const int kOps = 200;
    for (int tag = 0; tag < kOps; ++tag) {
      int64_t t_us = rng.NextInRange(0, 4) * 100;  // five buckets: collisions
      expected.emplace_back(t_us, tag);
      if (rng.NextBool(0.5)) {
        env.ScheduleCall(Micros(t_us),
                         [&order, tag] { order.push_back(tag); });
      } else {
        env.Spawn(RecordAfterDelay(&env, Micros(t_us), &order, tag));
      }
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    env.Run();
    ASSERT_EQ(order.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(order[i], expected[i].second)
          << "seed " << seed << " position " << i;
    }
  }
}

TEST(SchedulerHeapTest, CallScheduledDuringDispatchRunsAfterSameTimePeers) {
  // An event scheduled while dispatching time t gets a fresh (larger) seq,
  // so it runs after every event already queued for t — not before.
  Environment env;
  std::vector<std::string> order;
  env.ScheduleCall(Micros(100), [&] {
    order.push_back("a");
    env.ScheduleCall(env.Now(), [&] { order.push_back("a.child"); });
  });
  env.ScheduleCall(Micros(100), [&] { order.push_back("b"); });
  env.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a.child"}));
}

// Reference-model check for the radix event queue: random schedule and
// dispatch ops, checked online against a std::priority_queue on
// (at_us, seq). Every dispatch must be the model's minimum and must see
// Now() == its at_us; every RunUntil must stop exactly at its bound with
// nothing due left behind.
class QueueModelFuzz {
 public:
  explicit QueueModelFuzz(uint64_t seed) : rng_(seed) {}

  /// Schedules one event `delay_us` ahead, as a ScheduleCall closure or as
  /// a spawned process's first Delay (a handle event), at random.
  void Schedule(int64_t delay_us) {
    const int tag = next_tag_++;
    const int64_t at_us = env_.Now().us + delay_us;
    model_.push(Entry{at_us, next_seq_++, tag});
    ++ops_;
    if (rng_.NextBool(0.5)) {
      env_.ScheduleCall(Micros(at_us), [this, tag] { OnDispatch(tag); });
    } else {
      env_.Spawn(Sleeper(this, Micros(delay_us), tag));
    }
  }

  /// Heavy ties: same-tick and a few-µs offsets dominate, far-future
  /// timers collide on the same instant, and rare huge jumps cross the
  /// high key bits.
  int64_t RandomDelay() {
    double r = rng_.NextDouble();
    if (r < 0.35) return 0;
    if (r < 0.65) return rng_.NextInRange(1, 3);
    if (r < 0.85) return rng_.NextInRange(1, 2000);
    if (r < 0.97) return kLockTimeoutUs + rng_.NextInRange(0, 3);
    return rng_.NextInRange(1, int64_t{1} << 40);
  }

  void Step() {
    ++ops_;
    const bool any_pending = !model_.empty();
    EXPECT_EQ(env_.Step(), any_pending);
  }

  /// A window that usually stops short of the next event, then pushes
  /// that land between the new Now() and that event.
  void RunWindowThenBackfill() {
    ++ops_;
    SimTime until = env_.Now() + Micros(rng_.NextInRange(0, 3000));
    env_.RunUntil(until);
    EXPECT_EQ(env_.Now(), until);
    if (!model_.empty()) {
      EXPECT_GT(model_.top().at_us, until.us) << "RunUntil left due work";
      int64_t gap = model_.top().at_us - until.us;
      int n = static_cast<int>(rng_.NextInRange(1, 4));
      for (int i = 0; i < n; ++i) Schedule(rng_.NextInRange(0, gap));
    }
  }

  /// The shape lock waits create: a burst of timers parked one timeout
  /// ahead while near-future work keeps cycling.
  void ParkTimers(int n) {
    for (int i = 0; i < n; ++i) {
      Schedule(kLockTimeoutUs + rng_.NextInRange(0, 50));
    }
  }

  void Drain() {
    env_.Run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(env_.pending_events(), 0u);
  }

  util::Pcg32& rng() { return rng_; }
  size_t pending() const { return model_.size(); }
  int64_t ops() const { return ops_; }
  int64_t dispatched() const { return dispatched_; }
  int64_t mismatches() const { return mismatches_; }
  const std::string& first_mismatch() const { return first_mismatch_; }

 private:
  static constexpr int64_t kLockTimeoutUs = 5'000'000;

  struct Entry {
    int64_t at_us;
    uint64_t seq;
    int tag;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at_us != b.at_us) return a.at_us > b.at_us;
      return a.seq > b.seq;
    }
  };

  static Process Sleeper(QueueModelFuzz* fuzz, SimTime delay, int tag) {
    co_await fuzz->env_.Delay(delay);
    fuzz->OnDispatch(tag);
  }

  void OnDispatch(int tag) {
    ++ops_;
    ++dispatched_;
    if (model_.empty()) {
      NoteMismatch("dispatch of tag " + std::to_string(tag) +
                   " with an empty model");
      return;
    }
    Entry want = model_.top();
    model_.pop();
    if (want.tag != tag || want.at_us != env_.Now().us) {
      NoteMismatch("dispatch " + std::to_string(dispatched_) + ": got tag " +
                   std::to_string(tag) + " at " +
                   std::to_string(env_.Now().us) + ", want tag " +
                   std::to_string(want.tag) + " at " +
                   std::to_string(want.at_us));
    }
    // Cascades: dispatches schedule same-tick and future work of both
    // kinds, as coroutine wakeups and lock grants do.
    if (rng_.NextBool(0.3)) Schedule(RandomDelay());
  }

  void NoteMismatch(std::string what) {
    if (mismatches_++ == 0) first_mismatch_ = std::move(what);
  }

  Environment env_;
  util::Pcg32 rng_;
  std::priority_queue<Entry, std::vector<Entry>, Later> model_;
  uint64_t next_seq_ = 0;
  int next_tag_ = 0;
  int64_t ops_ = 0;
  int64_t dispatched_ = 0;
  int64_t mismatches_ = 0;
  std::string first_mismatch_;
};

TEST(SchedulerHeapTest, MatchesPriorityQueueModelOnRandomOps) {
  int64_t total_ops = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    QueueModelFuzz fuzz(seed);
    size_t max_pending = 0;
    for (int i = 0; i < 20000; ++i) {
      double r = fuzz.rng().NextDouble();
      if (r < 0.45) {
        fuzz.Schedule(fuzz.RandomDelay());
      } else if (r < 0.85) {
        fuzz.Step();
      } else if (r < 0.998) {
        fuzz.RunWindowThenBackfill();
      } else {
        fuzz.ParkTimers(1000);
      }
      max_pending = std::max(max_pending, fuzz.pending());
    }
    fuzz.Drain();
    EXPECT_EQ(fuzz.mismatches(), 0)
        << "seed " << seed << ": " << fuzz.first_mismatch();
    EXPECT_GT(max_pending, 2000u) << "seed " << seed
                                  << ": no parked-timer backlog formed";
    total_ops += fuzz.ops();
  }
  EXPECT_GE(total_ops, 100000);
}

// ------------------------------------------------ closure slab ownership

TEST(SchedulerHeapTest, SlabClosureDestroyedExactlyOnceAfterDispatch) {
  int deleted = 0;
  bool ran = false;
  {
    Environment env;
    auto token = std::shared_ptr<int>(new int(7),
                                      [&deleted](int* p) {
                                        ++deleted;
                                        delete p;
                                      });
    std::weak_ptr<int> weak = token;
    env.ScheduleCall(Micros(10), [token, &ran] { ran = (*token == 7); });
    token.reset();
    EXPECT_FALSE(weak.expired());  // the slab keeps the capture alive
    EXPECT_EQ(deleted, 0);
    env.Run();
    EXPECT_TRUE(ran);
    // Dispatch moved the closure out of its slot; the capture died with it
    // rather than lingering until the slot is reused or the env dies.
    EXPECT_TRUE(weak.expired());
    EXPECT_EQ(deleted, 1);
  }
  EXPECT_EQ(deleted, 1);  // environment teardown must not double-destroy
}

TEST(SchedulerHeapTest, SlabClosurePendingAtTeardownDestroyedExactlyOnce) {
  int deleted = 0;
  std::weak_ptr<int> weak;
  {
    Environment env;
    auto token = std::shared_ptr<int>(new int(1),
                                      [&deleted](int* p) {
                                        ++deleted;
                                        delete p;
                                      });
    weak = token;
    env.ScheduleCall(Seconds(100), [token] {});  // never dispatched
    token.reset();
    EXPECT_FALSE(weak.expired());
    EXPECT_EQ(deleted, 0);
  }
  // ~Environment / ~CallSlab owns still-parked closures.
  EXPECT_TRUE(weak.expired());
  EXPECT_EQ(deleted, 1);
}

}  // namespace
}  // namespace cloudybench::sim

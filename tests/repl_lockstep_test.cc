// Lockstep property tests for the batched replication pipeline
// (repl/Replayer, DESIGN.md §4k): the allocation-free ship→deliver→lane
// rewrite must be *timing-identical* to the per-record-coroutine pipeline
// it replaced, not just eventually-equivalent. LegacyReplayer below is a
// verbatim behavioral copy of the old implementation (one spawned ShipOne
// coroutine per record, std::set pending-LSN window); both pipelines run
// side by side in one simulation on identical inputs — including replay
// stalls mid-flight — and their watermark/backlog trajectories, apply
// counts and per-DML lag statistics are compared at every sampling instant.
//
// Also here: the steady-state zero-allocation tests (Replayer::arena_grows
// and LogManager::chunk_allocs must go quiet once the rings/chunk pool have
// reached their high-water marks).

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"
#include "repl/replayer.h"
#include "sim/environment.h"
#include "sim/resource.h"
#include "sim/task.h"
#include "storage/disk.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace cloudybench::repl {
namespace {

using storage::LogRecord;
using storage::LogRecordType;
using storage::Row;
using storage::TableSchema;

TableSchema Schema() {
  TableSchema s;
  s.name = "t";
  s.base_rows_per_sf = 1000;
  s.row_bytes = 64;
  s.generator = [](int64_t key) {
    Row r;
    r.key = key;
    r.amount = 1.0;
    return r;
  };
  return s;
}

/// Verbatim behavioral copy of the pre-§4k replayer: Ship() spawns one
/// coroutine per record, the pending-LSN window is a std::set, lanes pull
/// from deque-backed queues. Only the observability hooks (trace spans,
/// timeline events) are omitted — they never advance simulated time. This
/// is the timing oracle the batched pipeline is checked against.
class LegacyReplayer {
 public:
  LegacyReplayer(sim::Environment* env, storage::TableSet* replica_tables,
                 net::Link* ship_link, sim::SlotResource* replay_cpu,
                 ReplayConfig config)
      : env_(env),
        tables_(replica_tables),
        ship_link_(ship_link),
        replay_cpu_(replay_cpu),
        config_(config) {
    switch (config_.mode) {
      case ReplayMode::kSequential:
        lanes_ = 1;
        break;
      case ReplayMode::kParallel:
        lanes_ = config_.parallel_lanes;
        break;
      case ReplayMode::kRemoteInvalidation:
        lanes_ = 16;
        break;
    }
    lane_queues_.resize(static_cast<size_t>(lanes_));
    lane_waiters_.assign(static_cast<size_t>(lanes_), nullptr);
    for (int i = 0; i < lanes_; ++i) {
      env_->Spawn(LaneLoop(i));
    }
  }

  void Ship(const LogRecord& record) {
    last_shipped_lsn_ = record.lsn;
    if (record.type == LogRecordType::kCommit) return;
    pending_lsns_.insert(record.lsn);
    env_->Spawn(ShipOne(record));
  }

  void SetStalled(bool stalled) {
    if (stalled == stalled_) return;
    stalled_ = stalled;
    if (!stalled_) {
      std::vector<sim::Waiter*> parked;
      parked.swap(stall_waiters_);
      for (sim::Waiter* w : parked) w->Complete(0);
    }
  }

  int64_t applied_lsn() const {
    if (pending_lsns_.empty()) return last_shipped_lsn_;
    return *pending_lsns_.begin() - 1;
  }
  int64_t backlog() const {
    return static_cast<int64_t>(pending_lsns_.size());
  }
  int64_t records_applied() const { return records_applied_; }
  const util::RunningStat& InsertLag() const { return insert_lag_; }
  const util::RunningStat& UpdateLag() const { return update_lag_; }
  const util::RunningStat& DeleteLag() const { return delete_lag_; }

 private:
  int LaneFor(const LogRecord& record) const {
    if (lanes_ == 1) return 0;
    uint64_t h = static_cast<uint64_t>(record.key) * 0x9e3779b97f4a7c15ULL ^
                 static_cast<uint64_t>(record.table);
    return static_cast<int>(h % static_cast<uint64_t>(lanes_));
  }

  sim::Process ShipOne(LogRecord record) {
    if (config_.ship_interval.us > 0) {
      int64_t interval = config_.ship_interval.us;
      int64_t now = env_->Now().us;
      int64_t next_boundary = (now / interval + 1) * interval;
      co_await env_->Delay(sim::SimTime{next_boundary - now});
    }
    co_await ship_link_->Transfer(record.size_bytes());
    if (config_.extra_hop_latency.us > 0) {
      co_await env_->Delay(config_.extra_hop_latency);
    }
    int lane = LaneFor(record);
    lane_queues_[static_cast<size_t>(lane)].push_back(std::move(record));
    if (lane_waiters_[static_cast<size_t>(lane)] != nullptr) {
      lane_waiters_[static_cast<size_t>(lane)]->Complete(0);
    }
  }

  sim::Process LaneLoop(int lane) {
    auto& queue = lane_queues_[static_cast<size_t>(lane)];
    for (;;) {
      while (stalled_) {
        sim::Waiter gate(env_);
        stall_waiters_.push_back(&gate);
        co_await gate;
      }
      if (queue.empty()) {
        sim::Waiter waiter(env_);
        lane_waiters_[static_cast<size_t>(lane)] = &waiter;
        co_await waiter;
        lane_waiters_[static_cast<size_t>(lane)] = nullptr;
        continue;
      }
      LogRecord record = queue.front();
      queue.erase(queue.begin());
      co_await replay_cpu_->Consume(config_.apply_cost);
      ApplyToTables(record);
      RecordLag(record);
      pending_lsns_.erase(record.lsn);
      ++records_applied_;
    }
  }

  void ApplyToTables(const LogRecord& record) {
    storage::SyntheticTable* table = tables_->FindById(record.table);
    CB_CHECK(table != nullptr);
    switch (record.type) {
      case LogRecordType::kInsert:
        CB_CHECK(table->Insert(record.after).ok());
        break;
      case LogRecordType::kUpdate:
        CB_CHECK(table->Update(record.after).ok());
        break;
      case LogRecordType::kDelete:
        CB_CHECK(table->Delete(record.key).ok());
        break;
      case LogRecordType::kCommit:
        break;
    }
  }

  void RecordLag(const LogRecord& record) {
    double lag_ms = (env_->Now() - record.commit_time).ToMillis();
    switch (record.type) {
      case LogRecordType::kInsert:
        insert_lag_.Add(lag_ms);
        break;
      case LogRecordType::kUpdate:
        update_lag_.Add(lag_ms);
        break;
      case LogRecordType::kDelete:
        delete_lag_.Add(lag_ms);
        break;
      case LogRecordType::kCommit:
        break;
    }
  }

  sim::Environment* env_;
  storage::TableSet* tables_;
  net::Link* ship_link_;
  sim::SlotResource* replay_cpu_;
  ReplayConfig config_;
  int lanes_ = 1;
  std::vector<std::vector<LogRecord>> lane_queues_;
  std::vector<sim::Waiter*> lane_waiters_;
  std::vector<sim::Waiter*> stall_waiters_;
  bool stalled_ = false;
  std::set<int64_t> pending_lsns_;
  int64_t last_shipped_lsn_ = 0;
  int64_t records_applied_ = 0;
  util::RunningStat insert_lag_;
  util::RunningStat update_lag_;
  util::RunningStat delete_lag_;
};

/// Both pipelines in one simulation, each with its own link/CPU/tables so
/// their timings are independent yet driven by the same clock.
struct LockstepRig {
  explicit LockstepRig(ReplayConfig config)
      : new_link(&env, net::LinkConfig::Tcp10G("ship-new")),
        old_link(&env, net::LinkConfig::Tcp10G("ship-old")),
        new_cpu(&env, 2.0),
        old_cpu(&env, 2.0) {
    new_tables.Create(Schema(), 1);
    old_tables.Create(Schema(), 1);
    batched = std::make_unique<Replayer>(&env, &new_tables, &new_link,
                                         &new_cpu, config);
    legacy = std::make_unique<LegacyReplayer>(&env, &old_tables, &old_link,
                                              &old_cpu, config);
  }

  /// Ships one durable flush batch to both pipelines: the batched Ship(span)
  /// entry point vs the legacy per-record loop — exactly how the WAL's ship
  /// listeners drove each implementation.
  void ShipBatch(const std::vector<LogRecord>& batch) {
    batched->Ship(std::span<const LogRecord>(batch.data(), batch.size()));
    for (const LogRecord& rec : batch) legacy->Ship(rec);
  }

  sim::Environment env;
  net::Link new_link;
  net::Link old_link;
  sim::SlotResource new_cpu;
  sim::SlotResource old_cpu;
  storage::TableSet new_tables;
  storage::TableSet old_tables;
  std::unique_ptr<Replayer> batched;
  std::unique_ptr<LegacyReplayer> legacy;
};

LogRecord MakeDml(sim::Environment* env, int64_t lsn, util::Pcg32* rng) {
  LogRecord rec;
  rec.lsn = lsn;
  rec.commit_time = env->Now();
  rec.table = 0;
  uint32_t kind = rng->NextBounded(10);
  if (kind == 0) {
    rec.type = LogRecordType::kCommit;
  } else if (kind == 1) {
    rec.type = LogRecordType::kInsert;
    rec.key = 5000 + lsn;  // fresh key, never collides with loaded rows
    rec.after = Row{rec.key, 0, 0, 1.0, 0, 0};
  } else {
    rec.type = LogRecordType::kUpdate;
    rec.key = static_cast<int64_t>(rng->NextBounded(1000));
    rec.after = Row{rec.key, 0, 0, static_cast<double>(lsn), 0, 0};
  }
  return rec;
}

/// Drives a randomized shipping schedule (with optional stall windows)
/// through both pipelines and asserts lockstep equality at every
/// millisecond boundary plus at the end.
void RunLockstep(ReplayConfig config, uint64_t seed, bool with_stalls) {
  LockstepRig rig(config);
  util::Pcg32 rng(util::SplitSeed(seed, util::kWorkerStream));

  // Producer: bursts of 1..24 records at 50..1000 µs spacing for 200 ms —
  // enough pressure to queue on the link, batch boundaries and the lanes.
  struct Producer {
    static sim::Process Loop(LockstepRig* rig, util::Pcg32* rng) {
      int64_t lsn = 1;
      for (int burst = 0; burst < 120; ++burst) {
        std::vector<LogRecord> batch;
        uint32_t n = 1 + rng->NextBounded(24);
        for (uint32_t i = 0; i < n; ++i) {
          batch.push_back(MakeDml(&rig->env, lsn++, rng));
        }
        rig->ShipBatch(batch);
        co_await rig->env.Delay(
            sim::Micros(50 + rng->NextBounded(950)));
      }
    }
    static sim::Process Stalls(LockstepRig* rig, util::Pcg32* rng) {
      for (int window = 0; window < 6; ++window) {
        co_await rig->env.Delay(sim::Micros(3000 + rng->NextBounded(20000)));
        rig->batched->SetStalled(true);
        rig->legacy->SetStalled(true);
        co_await rig->env.Delay(sim::Micros(500 + rng->NextBounded(8000)));
        rig->batched->SetStalled(false);
        rig->legacy->SetStalled(false);
      }
    }
  };
  rig.env.Spawn(Producer::Loop(&rig, &rng));
  util::Pcg32 stall_rng(util::SplitSeed(seed, util::kJitterStream));
  if (with_stalls) rig.env.Spawn(Producer::Stalls(&rig, &stall_rng));

  // Sample the two pipelines' externally visible state in lockstep: the
  // watermark and backlog gauge must agree at *every* boundary, not just
  // after quiescing — this is what makes the test a timing property, not a
  // convergence check.
  for (int ms = 1; ms <= 400; ++ms) {
    rig.env.RunUntil(sim::Millis(ms));
    ASSERT_EQ(rig.batched->applied_lsn(), rig.legacy->applied_lsn())
        << "watermark diverged at t=" << ms << "ms (seed " << seed << ")";
    ASSERT_EQ(rig.batched->backlog(), rig.legacy->backlog())
        << "backlog diverged at t=" << ms << "ms (seed " << seed << ")";
    ASSERT_EQ(rig.batched->records_applied(), rig.legacy->records_applied())
        << "apply count diverged at t=" << ms << "ms (seed " << seed << ")";
  }

  // Quiesced: apply instants must match record for record. RunningStat
  // ingests lag in apply order, so identical count/mean/min/max per DML
  // type pins both the set of grant times and their per-lane order.
  ASSERT_GT(rig.batched->records_applied(), 0);
  EXPECT_EQ(rig.batched->backlog(), 0);
  const struct {
    const util::RunningStat& got;
    const util::RunningStat& want;
  } stats[] = {
      {rig.batched->InsertLag(), rig.legacy->InsertLag()},
      {rig.batched->UpdateLag(), rig.legacy->UpdateLag()},
      {rig.batched->DeleteLag(), rig.legacy->DeleteLag()},
  };
  for (const auto& s : stats) {
    EXPECT_EQ(s.got.count(), s.want.count());
    EXPECT_DOUBLE_EQ(s.got.mean(), s.want.mean());
    EXPECT_DOUBLE_EQ(s.got.min(), s.want.min());
    EXPECT_DOUBLE_EQ(s.got.max(), s.want.max());
  }
  // And the replicas converged to the same data.
  storage::SyntheticTable* got = rig.new_tables.FindById(0);
  storage::SyntheticTable* want = rig.old_tables.FindById(0);
  for (int64_t key = 0; key < 1000; ++key) {
    std::optional<Row> a = got->Get(key);
    std::optional<Row> b = want->Get(key);
    ASSERT_EQ(a.has_value(), b.has_value()) << "key " << key;
    if (a.has_value()) {
      EXPECT_DOUBLE_EQ(a->amount, b->amount) << key;
    }
  }
}

TEST(ReplLockstepTest, SequentialContinuousShipping) {
  ReplayConfig config;
  config.mode = ReplayMode::kSequential;
  RunLockstep(config, /*seed=*/1, /*with_stalls=*/false);
}

TEST(ReplLockstepTest, ParallelLanesWithShipInterval) {
  ReplayConfig config;
  config.mode = ReplayMode::kParallel;
  config.parallel_lanes = 4;
  config.ship_interval = sim::Millis(2);
  RunLockstep(config, /*seed=*/2, /*with_stalls=*/false);
}

TEST(ReplLockstepTest, ExtraHopSequential) {
  ReplayConfig config;
  config.mode = ReplayMode::kSequential;
  config.extra_hop_latency = sim::Micros(350);
  config.ship_interval = sim::Millis(5);
  RunLockstep(config, /*seed=*/3, /*with_stalls=*/false);
}

TEST(ReplLockstepTest, ParallelLanesUnderReplayStalls) {
  ReplayConfig config;
  config.mode = ReplayMode::kParallel;
  config.parallel_lanes = 4;
  config.ship_interval = sim::Millis(1);
  RunLockstep(config, /*seed=*/4, /*with_stalls=*/true);
}

TEST(ReplLockstepTest, SequentialUnderReplayStallsManySeeds) {
  for (uint64_t seed = 10; seed < 14; ++seed) {
    ReplayConfig config;
    config.mode = ReplayMode::kSequential;
    RunLockstep(config, seed, /*with_stalls=*/true);
  }
}

// ---- Steady-state zero-allocation properties ------------------------------

TEST(ReplZeroAllocTest, ShipReplaySteadyStateStopsGrowingRings) {
  ReplayConfig config;
  config.mode = ReplayMode::kParallel;
  config.parallel_lanes = 4;
  config.ship_interval = sim::Millis(1);

  sim::Environment env;
  net::Link link(&env, net::LinkConfig::Tcp10G("ship"));
  sim::SlotResource cpu(&env, 4.0);
  storage::TableSet tables;
  tables.Create(Schema(), 1);
  Replayer replayer(&env, &tables, &link, &cpu, config);

  util::Pcg32 rng(42);
  int64_t lsn = 1;
  auto ship_burst = [&](int bursts) {
    for (int b = 0; b < bursts; ++b) {
      std::vector<LogRecord> batch;
      for (int i = 0; i < 32; ++i) {
        LogRecord rec;
        rec.lsn = lsn++;
        rec.type = LogRecordType::kUpdate;
        rec.table = 0;
        rec.key = static_cast<int64_t>(rng.NextBounded(1000));
        rec.after = Row{rec.key, 0, 0, 1.0, 0, 0};
        rec.commit_time = env.Now();
        batch.push_back(rec);
      }
      replayer.Ship(std::span<const LogRecord>(batch.data(), batch.size()));
      env.RunFor(sim::Millis(2));  // drains: apply keeps up with shipping
    }
  };

  // Warmup grows the rings to their high-water marks...
  ship_burst(20);
  int64_t grows_after_warmup = replayer.arena_grows();
  int64_t applied_after_warmup = replayer.records_applied();

  // ...after which an order of magnitude more traffic at the same backlog
  // envelope must not grow anything: the steady state is allocation-free.
  ship_burst(200);
  EXPECT_EQ(replayer.arena_grows(), grows_after_warmup)
      << "ship→replay steady state allocated";
  EXPECT_GT(replayer.records_applied(), applied_after_warmup);
  EXPECT_EQ(replayer.backlog(), 0);
}

TEST(ReplZeroAllocTest, WalPendingBufferRecyclesChunks) {
  sim::Environment env;
  storage::DiskDevice::Config disk_cfg;
  disk_cfg.name = "wal";
  disk_cfg.provisioned_iops = 20000;
  storage::DiskDevice disk(&env, disk_cfg);
  storage::LogManager log(&env, &disk);

  struct Flusher {
    static sim::Process Drain(storage::LogManager* log, int rounds,
                              int per_round) {
      for (int r = 0; r < rounds; ++r) {
        storage::LogRecord rec;
        rec.type = storage::LogRecordType::kUpdate;
        rec.after = Row{1, 0, 0, 1.0, 0, 0};
        int64_t last = 0;
        for (int i = 0; i < per_round; ++i) last = log->Append(rec);
        co_await log->WaitDurable(last);
      }
    }
  };

  // Warmup: cross several chunk boundaries so the free list reaches its
  // high-water mark.
  env.Spawn(Flusher::Drain(&log,/*rounds=*/4, /*per_round=*/6000));
  env.RunUntil(sim::Seconds(5));
  int64_t allocs_after_warmup = log.chunk_allocs();
  EXPECT_GT(allocs_after_warmup, 0);

  // Steady state: 20x more records through the same flush cadence reuse
  // recycled chunks only.
  env.Spawn(Flusher::Drain(&log,/*rounds=*/80, /*per_round=*/6000));
  env.RunUntil(sim::Seconds(60));
  EXPECT_EQ(log.chunk_allocs(), allocs_after_warmup)
      << "WAL pending buffer allocated in steady state";
  EXPECT_EQ(log.pending_bytes(), 0);
}

}  // namespace
}  // namespace cloudybench::repl

// Micro-benchmarks (google-benchmark) for the engine substrate primitives:
// buffer-pool access, synthetic-table reads/writes, lock acquisition, WAL
// appends, Zipf sampling, and the DES kernel itself (schedule/dispatch,
// spawn/join, and an end-to-end OLTP-cell events-per-second number). These
// quantify the simulator's own overheads — every simulated transaction is
// built from these operations, so scripts/perf_baseline.sh records them in
// BENCH_core.json as the repo's tracked perf trajectory.

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "load/arrival.h"
#include "net/network.h"
#include "obs/metric_registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "repl/replayer.h"
#include "runner/oltp_cell.h"
#include "runner/sharded_cell.h"
#include "sim/environment.h"
#include "sim/resource.h"
#include "storage/buffer_pool.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"
#include "txn/engine.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "util/logging.h"
#include "util/random.h"

namespace cloudybench {
namespace {

storage::TableSchema BenchSchema() {
  storage::TableSchema s;
  s.name = "bench";
  s.base_rows_per_sf = 1'000'000;
  s.row_bytes = 64;
  s.generator = [](int64_t key) {
    storage::Row r;
    r.key = key;
    r.amount = static_cast<double>(key);
    return r;
  };
  return s;
}

void BM_BufferPoolTouchHit(benchmark::State& state) {
  storage::BufferPool pool(64LL << 20);
  for (int64_t i = 0; i < 1024; ++i) pool.Admit({0, i});
  // Power-of-two working set: the wrap is a mask, so the loop measures the
  // pool's probe + LRU move rather than harness arithmetic.
  int64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pool.Touch({0, i++ & 1023}));
  }
}
BENCHMARK(BM_BufferPoolTouchHit);

void BM_BufferPoolMissAdmitEvict(benchmark::State& state) {
  storage::BufferPool pool(8LL << 20);  // 1024 pages -> constant eviction
  int64_t i = 0;
  for (auto _ : state) {
    storage::PageId p{0, i++};
    if (!pool.Touch(p)) benchmark::DoNotOptimize(pool.Admit(p));
  }
}
BENCHMARK(BM_BufferPoolMissAdmitEvict);

void BM_SyntheticTableBaseRead(benchmark::State& state) {
  storage::SyntheticTable table(BenchSchema(), 1);
  util::Pcg32 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Get(rng.NextInRange(0, 999'999)));
  }
}
BENCHMARK(BM_SyntheticTableBaseRead);

void BM_SyntheticTableOverlayUpdate(benchmark::State& state) {
  storage::SyntheticTable table(BenchSchema(), 1);
  util::Pcg32 rng(1);
  storage::Row row;
  // Pre-populate the overlay so the timed loop measures steady-state
  // updates (the hot path during a measurement window) rather than the
  // one-time overlay growth + rehash cost, which made the reported number
  // depend on --benchmark_min_time.
  for (int64_t key = 0; key < 1'000'000; ++key) {
    row = *table.Get(key);
    row.amount += 1;
    table.Update(row);
  }
  for (auto _ : state) {
    row = *table.Get(rng.NextInRange(0, 999'999));
    row.amount += 1;
    benchmark::DoNotOptimize(table.Update(row));
  }
}
BENCHMARK(BM_SyntheticTableOverlayUpdate);

void BM_LockAcquireReleaseUncontended(benchmark::State& state) {
  sim::Environment env;
  txn::LockManager locks(&env, sim::Seconds(5));
  int64_t key = 0;
  for (auto _ : state) {
    txn::TableKey k{0, key++ % 4096};
    // Uncontended locks grant synchronously on the fast path.
    env.Spawn([](txn::LockManager* lm, txn::TableKey kk) -> sim::Process {
      util::Status s = co_await lm->Lock(1, kk, txn::LockMode::kExclusive);
      benchmark::DoNotOptimize(s);
      lm->Release(1, kk);
    }(&locks, k));
  }
}
BENCHMARK(BM_LockAcquireReleaseUncontended);

/// Engine stub with instant CPU, pages and log force: isolates the
/// transaction layer's own bookkeeping (txn book pool, lock table, commit
/// batch assembly) from the simulated cloud substrate.
class NullEngine final : public txn::Engine {
 public:
  explicit NullEngine(sim::Environment* env)
      : env_(env), locks_(env, sim::Seconds(1)) {
    table_ = tables_.Create(BenchSchema(), 1);
  }

  sim::Environment* env() override { return env_; }
  storage::TableSet* tables() override { return &tables_; }
  txn::LockManager* lock_manager() override { return &locks_; }
  bool available() const override { return true; }
  sim::Task<void> ChargeCpu(sim::SimTime) override { co_return; }
  sim::Task<util::Status> AccessPage(storage::PageId, bool) override {
    co_return util::Status::OK();
  }
  sim::Task<util::Status> CommitRecords(
      const std::vector<storage::LogRecord>* records) override {
    benchmark::DoNotOptimize(records->size());
    co_return util::Status::OK();
  }

  storage::SyntheticTable* table() { return table_; }

 private:
  sim::Environment* env_;
  storage::TableSet tables_;
  storage::SyntheticTable* table_ = nullptr;
  txn::LockManager locks_;
};

sim::Process OneUpdateTxn(txn::TxnManager* mgr, storage::SyntheticTable* table,
                          int64_t key) {
  txn::Transaction txn = mgr->Begin();
  storage::Row row = *table->Get(key);
  row.amount += 1;
  util::Status s = co_await mgr->Update(&txn, table, row);
  benchmark::DoNotOptimize(s);
  s = co_await mgr->Commit(&txn);
  benchmark::DoNotOptimize(s);
}

void BM_TxnBeginCommit(benchmark::State& state) {
  // Steady-state transaction lifecycle floor: Begin -> one UPDATE ->
  // Commit against NullEngine. After warm-up the txn book, its lock list
  // and commit batch, the lock-table entry, and every coroutine frame all
  // come from recycling pools — this measures the transaction layer's pure
  // bookkeeping cost with zero heap allocations per cycle.
  sim::Environment env;
  NullEngine engine(&env);
  txn::TxnManager mgr(&engine, txn::CpuCosts{});
  int64_t key = 0;
  for (auto _ : state) {
    env.Spawn(OneUpdateTxn(&mgr, engine.table(), key++ & 1023));
    env.Run();
  }
}
BENCHMARK(BM_TxnBeginCommit);

void BM_WalAppend(benchmark::State& state) {
  sim::Environment env;
  storage::DiskDevice::Config cfg;
  cfg.provisioned_iops = 1e9;
  storage::DiskDevice device(&env, cfg);
  storage::LogManager log(&env, &device);
  storage::LogRecord rec;
  rec.type = storage::LogRecordType::kUpdate;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.Append(rec));
  }
}
BENCHMARK(BM_WalAppend);

sim::Process ForceLog(storage::LogManager* log) {
  co_await log->WaitDurable(log->appended_lsn());
}

void BM_WalAppendBatch(benchmark::State& state) {
  // The commit path's batched append: one 4-record transaction batch per
  // iteration (3 DML + commit), items = records. Periodically forces the
  // log so the pending buffer drains and its capacity is recycled — the
  // steady-state shape of a live cell, not an ever-growing backlog.
  sim::Environment env;
  storage::DiskDevice::Config cfg;
  cfg.provisioned_iops = 1e9;
  storage::DiskDevice device(&env, cfg);
  storage::LogManager log(&env, &device);
  std::vector<storage::LogRecord> batch(4);
  for (storage::LogRecord& r : batch) r.type = storage::LogRecordType::kUpdate;
  batch.back().type = storage::LogRecordType::kCommit;
  int64_t records = 0;
  int64_t since_flush = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.AppendBatch(batch));
    records += static_cast<int64_t>(batch.size());
    if (++since_flush == 16384) {
      env.Spawn(ForceLog(&log));
      env.Run();
      since_flush = 0;
    }
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_WalAppendBatch);

void BM_ZipfSample(benchmark::State& state) {
  util::Pcg32 rng(7);
  util::ZipfGenerator zipf(300'000'000ULL, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Next(rng));
  }
}
BENCHMARK(BM_ZipfSample);

void BM_BufferPoolMarkTakeDirty(benchmark::State& state) {
  // Checkpointer unit of work against a mostly-clean resident set: mark a
  // handful of pages dirty, then TakeDirty them back out. Sensitive to
  // whether TakeDirty is O(taken) or O(resident).
  constexpr int64_t kResident = 4096;
  storage::BufferPool pool(kResident * storage::BufferPool::kPageBytes);
  for (int64_t i = 0; i < kResident; ++i) pool.Admit({0, i});
  int64_t i = 0;
  for (auto _ : state) {
    for (int k = 0; k < 8; ++k) pool.MarkDirty({0, (i += 97) % kResident});
    benchmark::DoNotOptimize(pool.TakeDirty(8));
  }
}
BENCHMARK(BM_BufferPoolMarkTakeDirty);

void BM_SimEventDispatch(benchmark::State& state) {
  // Cost of one schedule+dispatch round trip in the DES kernel.
  sim::Environment env;
  int64_t counter = 0;
  for (auto _ : state) {
    env.ScheduleCall(env.Now(), [&counter] { ++counter; });
    env.Step();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimEventDispatch);

void BM_SimEventDispatchDeep(benchmark::State& state) {
  // Same round trip against a realistically deep queue (a paper-scale cell
  // keeps hundreds of pending timers/locks/IO completions): schedule one
  // event behind 1024 pending ones, dispatch one. This is the headline
  // scheduler-dispatch-throughput number in BENCH_core.json.
  sim::Environment env;
  int64_t counter = 0;
  constexpr int64_t kDepth = 1024;
  for (int64_t i = 0; i < kDepth; ++i) {
    env.ScheduleCall(env.Now() + sim::Seconds(3600 + i), [&counter] { ++counter; });
  }
  for (auto _ : state) {
    env.ScheduleCall(env.Now(), [&counter] { ++counter; });
    env.Step();
  }
  benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_SimEventDispatchDeep);

sim::Process SelfRescheduling(sim::Environment* env, int64_t* resumes) {
  for (;;) {
    co_await env->Delay(sim::Micros(1));
    ++*resumes;
  }
}

void BM_SimScheduleDispatchHandle(benchmark::State& state) {
  // The coroutine-resume hot path: each Step pops one timer event and
  // resumes a process that immediately re-arms its delay. No closures are
  // involved — this is the path nearly every simulated event takes.
  sim::Environment env;
  int64_t resumes = 0;
  env.Spawn(SelfRescheduling(&env, &resumes));
  for (auto _ : state) {
    env.Step();
  }
  benchmark::DoNotOptimize(resumes);
}
BENCHMARK(BM_SimScheduleDispatchHandle);

sim::Process NapMicro(sim::Environment* env) {
  co_await env->Delay(sim::Micros(1));
}

sim::Process JoinOne(sim::Environment* env, sim::ProcessRef target) {
  co_await env->Join(std::move(target));
}

void BM_SimSpawnJoinCycle(benchmark::State& state) {
  // Frame + ProcessState lifecycle cost: spawn a short-lived process and a
  // joiner on it, drain both. Exercises Spawn bookkeeping, join wakeup and
  // detached-frame reclamation.
  sim::Environment env;
  for (auto _ : state) {
    sim::ProcessRef ref = env.Spawn(NapMicro(&env));
    env.Spawn(JoinOne(&env, std::move(ref)));
    env.Run();
  }
}
BENCHMARK(BM_SimSpawnJoinCycle);

void BM_ArrivalGeneration(benchmark::State& state) {
  // Open-loop schedule synthesis (src/load/): batch generation of a mixed
  // three-stream plan — thinned Poisson under a diurnal shape, an MMPP-2
  // burst stream, and a fixed tick. items/sec is arrivals materialized per
  // wall second; the saturation bench's dispatcher refills from exactly
  // this path, so it bounds how much offered load a cell can script.
  util::Result<load::ArrivalPlan> plan = load::ParseArrivalPlan(
      "process=poisson,rate=5000,shape=diurnal,period=10s,amplitude=0.5;"
      "process=mmpp,rate=500,rate2=4000,dwell=200ms;"
      "process=fixed,rate=1000");
  CB_CHECK(plan.ok());
  int64_t arrivals = 0;
  std::vector<load::Arrival> batch;
  std::optional<load::ArrivalGenerator> gen;
  gen.emplace(*plan, 42, sim::Seconds(3600));
  for (auto _ : state) {
    batch.clear();
    size_t n = gen->NextBatch(4096, &batch);
    if (n == 0) {  // horizon exhausted: restart the schedule
      gen.emplace(*plan, 42, sim::Seconds(3600));
      n = gen->NextBatch(4096, &batch);
    }
    arrivals += static_cast<int64_t>(n);
    benchmark::DoNotOptimize(batch.data());
  }
  state.SetItemsProcessed(arrivals);
}
BENCHMARK(BM_ArrivalGeneration)->Unit(benchmark::kMicrosecond);

void BM_OltpCellEventsPerSecond(benchmark::State& state) {
  // End-to-end DES throughput: one small OLTP cell (SF1, 16 clients,
  // RW sales mix) per iteration; items/sec reports *simulated events per
  // wall second*, the number that bounds every EXPERIMENTS.md sweep.
  util::SetLogLevel(util::LogLevel::kWarning);
  int64_t events = 0;
  for (auto _ : state) {
    runner::CellSpec spec;
    spec.sut = sut::SutKind::kCdb4;
    spec.scale_factor = 1;
    spec.n_ro = 1;
    spec.concurrency = 16;
    spec.pattern = "RW";
    spec.seed = 42;
    spec.warmup = sim::Millis(200);
    spec.measure = sim::Seconds(1);
    SalesTransactionSet txns(runner::SalesConfigFor(spec));
    runner::CellDeployment rig(spec, txns.Schemas());
    OltpEvaluator::Options options;
    options.concurrency = spec.concurrency;
    options.warmup = spec.warmup;
    options.measure = spec.measure;
    benchmark::DoNotOptimize(
        OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options));
    events += static_cast<int64_t>(rig.env.dispatched_events());
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_OltpCellEventsPerSecond)->Unit(benchmark::kMillisecond);

void BM_ObsOverhead(benchmark::State& state) {
  // Obs self-cost budget (DESIGN.md §4j): the cell from
  // BM_OltpCellEventsPerSecond with the *always-on* observability armed —
  // the metric registry, latency histograms, and the timeline journal with
  // its 500 ms sampler — what every cell run under --timeline-*-template
  // pays. Span tracing is deliberately NOT armed: it is per-cell opt-in
  // (--trace-template / --profile-*-template), records every span of every
  // transaction, and costs ~20% — a price the operator asks for explicitly
  // when requesting trace/profile artifacts, not a tax on ordinary sweeps.
  // The perf gate divides this number by BM_OltpCellEventsPerSecond *from
  // the same run* (machine speed cancels) and fails when the ratio exceeds
  // gate.obs_overhead_max_ratio.
  util::SetLogLevel(util::LogLevel::kWarning);
  obs::Timeline& timeline = obs::Timeline::Get();
  int64_t events = 0;
  for (auto _ : state) {
    timeline.SetEnabled(true);
    timeline.Clear();
    obs::MetricRegistry::Get().Clear();
    {
      runner::CellSpec spec;
      spec.sut = sut::SutKind::kCdb4;
      spec.scale_factor = 1;
      spec.n_ro = 1;
      spec.concurrency = 16;
      spec.pattern = "RW";
      spec.seed = 42;
      spec.warmup = sim::Millis(200);
      spec.measure = sim::Seconds(1);
      SalesTransactionSet txns(runner::SalesConfigFor(spec));
      runner::CellDeployment rig(spec, txns.Schemas());
      rig.sampler.Start();
      OltpEvaluator::Options options;
      options.concurrency = spec.concurrency;
      options.warmup = spec.warmup;
      options.measure = spec.measure;
      benchmark::DoNotOptimize(
          OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options));
      events += static_cast<int64_t>(rig.env.dispatched_events());
    }
    timeline.SetEnabled(false);
    timeline.Clear();
    obs::MetricRegistry::Get().Clear();
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_ObsOverhead)->Unit(benchmark::kMillisecond);

// ---- Replication pipeline (DESIGN.md §4k) ---------------------------------

storage::TableSchema ReplSchema() {
  storage::TableSchema s;
  s.name = "repl";
  s.base_rows_per_sf = 1000;
  s.row_bytes = 64;
  s.generator = [](int64_t key) {
    storage::Row r;
    r.key = key;
    r.amount = 1.0;
    return r;
  };
  return s;
}

/// One ship→replay rig: link, replay CPU, replica tables, and a prebuilt
/// 64-record flush batch (the WAL's typical ship span).
struct ReplRig {
  ReplRig() : link(&env, net::LinkConfig::Tcp10G("ship")), cpu(&env, 4.0) {
    tables.Create(ReplSchema(), 1);
    batch.resize(64);
    for (size_t i = 0; i < batch.size(); ++i) {
      storage::LogRecord& rec = batch[i];
      rec.type = storage::LogRecordType::kUpdate;
      rec.table = 0;
      rec.key = static_cast<int64_t>((i * 37) % 1000);
      rec.after = storage::Row{rec.key, 0, 0, 1.0, 0, 0};
    }
  }

  void Stamp(int64_t* lsn) {
    for (storage::LogRecord& rec : batch) {
      rec.lsn = (*lsn)++;
      rec.commit_time = env.Now();
    }
  }

  sim::Environment env;
  net::Link link;
  sim::SlotResource cpu;
  storage::TableSet tables;
  std::vector<storage::LogRecord> batch;
};

repl::ReplayConfig ReplBenchConfig() {
  repl::ReplayConfig config;
  config.mode = repl::ReplayMode::kParallel;
  config.parallel_lanes = 4;
  // Interval-batched shipping is the production shape: every SUT profile
  // sets a nonzero cadence (CDB4 2ms ... CDB2 2s, src/sut/profiles.cc).
  // The old pipeline paid one boundary-delay coroutine per record here;
  // the batched pipeline pays one per wave.
  config.ship_interval = sim::Millis(1);
  return config;
}

/// Flush batches accumulated per shipping interval in the ship->replay
/// micros: at a 1 ms cadence a busy primary flushes the WAL several times
/// per interval, and a bigger per-iteration span also amortizes the
/// benchmark loop's fixed costs over 8x the records.
constexpr int kShipBatchesPerInterval = 8;

void BM_ReplShipReplay(benchmark::State& state) {
  // The batched pipeline: eight 64-record durable flush batches land via
  // the WAL's span ship listener (one std::function call per batch), are
  // staged by Ship(span), cross the link via the persistent ship/deliver
  // loops, and are fully applied by the lanes before the next iteration.
  // Steady state runs entirely out of the pipeline's flat rings — zero
  // heap allocations (tests/repl_lockstep_test.cc asserts it, and pins
  // equivalence against the pre-§4k per-record replayer); its
  // BENCH_core.json tolerance band pins the speed.
  ReplRig rig;
  repl::Replayer replayer(&rig.env, &rig.tables, &rig.link, &rig.cpu,
                          ReplBenchConfig());
  std::function<void(std::span<const storage::LogRecord>)> listener =
      [&replayer](std::span<const storage::LogRecord> records) {
        replayer.Ship(records);
      };
  int64_t lsn = 1;
  int64_t records = 0;
  for (auto _ : state) {
    for (int b = 0; b < kShipBatchesPerInterval; ++b) {
      rig.Stamp(&lsn);
      listener(std::span<const storage::LogRecord>(rig.batch.data(),
                                                   rig.batch.size()));
    }
    rig.env.Run();
    records += static_cast<int64_t>(rig.batch.size()) * kShipBatchesPerInterval;
  }
  state.SetItemsProcessed(records);
}
BENCHMARK(BM_ReplShipReplay);

// ---- Tenant-sharded cells (DESIGN.md §4k) ---------------------------------

void BM_CellParallelSpeedup(benchmark::State& state) {
  // Whole-cell cost of the tenant-sharded runner path at 1 vs 2 shards: a
  // tiny 2-tenant CDB3 cell, deploy + warmup + measure per iteration. On a
  // multi-core host the /2 variant approaches half the /1 wall time (the
  // tenants are embarrassingly parallel); bench_cell_scaling runs the full
  // 1/2/4/8 ladder. The gate bands each variant's absolute cost so the
  // sharded path cannot quietly regress.
  util::SetLogLevel(util::LogLevel::kWarning);
  runner::CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.scale_factor = 1;
  spec.concurrency = 8;
  spec.pattern = "RW";
  spec.seed = 42;
  spec.warmup = sim::Millis(100);
  spec.measure = sim::Millis(300);
  spec.tenants = 2;
  spec.cell_shards = static_cast<int>(state.range(0));
  runner::CellContext ctx{spec, 0, "", "", "", "", "", ""};
  for (auto _ : state) {
    runner::CellResult result = runner::RunTenantShardedCell(ctx);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_CellParallelSpeedup)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace cloudybench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Self-reported build provenance: the JSON context's `library_build_type`
  // describes how the *benchmark library* was compiled, not this binary.
  // perf_baseline.sh and the check.sh perf gate read this key instead so a
  // Release baseline is never compared against debug numbers.
#ifdef NDEBUG
  benchmark::AddCustomContext("cloudybench_build_type", "release");
#else
  benchmark::AddCustomContext("cloudybench_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// Golden regression for the deterministic output contract: the standard
// OLTP cell, at a fixed small spec and seed, must produce byte-identical
// artifact lines across refactors of the engine underneath it. The strings
// below were captured from the tree at the time the txn/lock/WAL hot paths
// were flattened (DESIGN.md §4i) and verified identical to the pre-change
// implementation; any future diff here means a change altered the simulated
// schedule, not just its speed. Update the strings only when a change is
// *intended* to alter results (e.g. a new cost model) and say so in the
// commit message.
//
// Last intentional update: the obs::Histogram migration (DESIGN.md §4j)
// replaced the geometric LatencyHistogram (~2.1% midpoint error) with
// log2-linear HDR buckets (≤0.78% error), shifting reported p50/p99 by one
// digit in the last place. tps/commits/costs are untouched — only quantile
// representation changed, not the simulated schedule.
//
// Two more lines pin the event order itself under the shapes that stress
// the DES queue: a contended CDB4 cell whose lock waits park thousands of
// far-future timeout timers, and an open-loop chaos case with an RO crash.
// Both were captured before the 4-ary event heap was replaced by the radix
// queue (DESIGN.md §4f) and reproduced unchanged after it.

#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "chaos/harness.h"
#include "core/evaluators.h"
#include "fault/fault.h"
#include "runner/matrix.h"
#include "runner/oltp_cell.h"
#include "runner/runner.h"
#include "util/string_util.h"

namespace cloudybench::runner {
namespace {

constexpr const char* kGoldenRw =
    "{\"cell\":\"AWS RDS/sf1/RW/con8/seed7\",\"index\":0,\"ok\":true,"
    "\"sim_seconds\":0.700,\"tps\":4138,\"p50_ms\":1.32,\"p99_ms\":7.65,"
    "\"commits\":2915,\"aborts\":0,\"cost_per_min\":0.0277,"
    "\"cost_cpu\":0.0123,\"cost_mem\":0.0025,\"cost_storage\":0.0000,"
    "\"cost_iops\":0.0000,\"cost_net\":0.0128,\"p_score\":149368,"
    "\"buffer_hit_pct\":83.6,\"vcores\":4,\"memory_gb\":16,"
    "\"storage_gb\":0.4,\"iops\":1000,\"net_gbps\":10}";

constexpr const char* kGoldenRo =
    "{\"cell\":\"AWS RDS/sf1/RO/con8/seed7\",\"index\":0,\"ok\":true,"
    "\"sim_seconds\":0.700,\"tps\":5756,\"p50_ms\":1.32,\"p99_ms\":1.69,"
    "\"commits\":4069,\"aborts\":0,\"cost_per_min\":0.0277,"
    "\"cost_cpu\":0.0123,\"cost_mem\":0.0025,\"cost_storage\":0.0000,"
    "\"cost_iops\":0.0000,\"cost_net\":0.0128,\"p_score\":207772,"
    "\"buffer_hit_pct\":85.3,\"vcores\":4,\"memory_gb\":16,"
    "\"storage_gb\":0.4,\"iops\":1000,\"net_gbps\":10}";

constexpr const char* kGoldenContendedCdb4 =
    "tps=19960 p50_ms=5.47 p99_ms=51.46 commits=13622 aborts=0 "
    "lock_waits=7637 lock_timeouts=0 events=62953 pending=7749";

constexpr const char* kGoldenChaosRoCrash =
    "commits=1250 aborts=0 acked=273 armed=1 skipped=0 drained=1 "
    "sim_s=16.000000 oracles=pass";

CellSpec SmallSpec(std::string pattern, uint64_t seed) {
  CellSpec spec;
  spec.sut = sut::SutKind::kAwsRds;
  spec.scale_factor = 1;
  spec.concurrency = 8;
  spec.pattern = std::move(pattern);
  spec.seed = seed;
  spec.warmup = sim::Millis(200);
  spec.measure = sim::Millis(500);
  return spec;
}

/// High-concurrency latest-10 RW on CDB4: most writers collide on the
/// newest orders, so lock waits park their 5 s timeout timers far in the
/// event queue's future while near-future work cycles past them. The line
/// carries the lock and event counts besides the headline numbers.
std::string ContendedLine(int64_t* lock_waits) {
  CellSpec spec = SmallSpec("RW", 7);
  spec.sut = sut::SutKind::kCdb4;
  spec.concurrency = 200;
  SalesWorkloadConfig cfg = SalesConfigFor(spec);
  cfg.distribution = AccessDistribution::kLatest;
  SalesTransactionSet txns(cfg);
  CellDeployment rig(spec, txns.Schemas());
  OltpEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  OltpResult r = OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns,
                                    options);
  const txn::LockManager& locks = rig.cluster->rw()->locks();
  *lock_waits = locks.waits();
  return util::StringPrintf(
      "tps=%.0f p50_ms=%.2f p99_ms=%.2f commits=%lld aborts=%lld "
      "lock_waits=%lld lock_timeouts=%lld events=%llu pending=%zu",
      r.mean_tps, r.p50_latency_ms, r.p99_latency_ms,
      static_cast<long long>(r.commits), static_cast<long long>(r.aborts),
      static_cast<long long>(locks.waits()),
      static_cast<long long>(locks.timeouts()),
      static_cast<unsigned long long>(rig.env.dispatched_events()),
      rig.env.pending_events());
}

/// One open-loop chaos case (Poisson arrivals, an RO crash mid-window)
/// folded into a line: headline counters plus the oracle verdict.
std::string ChaosLine() {
  chaos::CaseOptions options;
  options.sut = sut::SutKind::kCdb3;
  options.seed = 7;
  options.arrivals = "process=poisson,rate=400";
  options.measure = sim::Seconds(3);
  chaos::CaseOutcome outcome = chaos::RunChaosCase(
      *fault::ParseFaultPlan("kind=crash,target=ro,at=1s"), options);
  return util::StringPrintf(
      "commits=%lld aborts=%lld acked=%lld armed=%d skipped=%d drained=%d "
      "sim_s=%.6f oracles=%s",
      static_cast<long long>(outcome.commits),
      static_cast<long long>(outcome.aborts),
      static_cast<long long>(outcome.acked_commits), outcome.armed,
      outcome.skipped, outcome.drained ? 1 : 0, outcome.sim_seconds,
      outcome.report.Summary().c_str());
}

std::string RunLine(const CellSpec& spec) {
  CellContext ctx{spec, 0, "", "", "", "", "", ""};
  CellResult result = RunOltpCell(ctx);
  // The MatrixRunner wrapper normally stamps these; mirror it so the line
  // matches what a sweep would write to its JSONL artifact.
  result.ok = result.error.empty();
  result.id = DefaultCellId(spec);
  EXPECT_TRUE(result.ok) << result.error;
  return ToJsonLine(result);
}

TEST(GoldenCellTest, RwCellArtifactLineIsStable) {
  EXPECT_EQ(RunLine(SmallSpec("RW", 7)), kGoldenRw);
}

TEST(GoldenCellTest, RoCellArtifactLineIsStable) {
  EXPECT_EQ(RunLine(SmallSpec("RO", 7)), kGoldenRo);
}

TEST(GoldenCellTest, ContendedCdb4CellIsStable) {
  int64_t lock_waits = 0;
  EXPECT_EQ(ContendedLine(&lock_waits), kGoldenContendedCdb4);
  // Guards the cell against drifting into an uncontended shape, where it
  // would stop exercising parked timers.
  EXPECT_GT(lock_waits, 100);
}

TEST(GoldenCellTest, OpenLoopRoCrashChaosCaseIsStable) {
  EXPECT_EQ(ChaosLine(), kGoldenChaosRoCrash);
}

TEST(GoldenCellTest, SameSeedRerunIsByteIdentical) {
  // Two back-to-back deployments in the same process (warm pools, warm
  // frame arena) must not observe each other.
  std::string first = RunLine(SmallSpec("RW", 11));
  std::string second = RunLine(SmallSpec("RW", 11));
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace cloudybench::runner

// Tests for obs::Profiler, the deterministic hierarchical profiler: tree
// construction from synthetic traces (merging, exclusive-time accounting,
// golden collapsed-stack output), infrastructure tracks present on a real
// traced cell, byte-identical artifacts across identical runs, and
// wall-capture behavior (wall time reported, but never leaking into the
// byte-stable sim-time exports).

#include "obs/profiler.h"

#include <string>

#include <gtest/gtest.h>

#include "cloud/cluster.h"
#include "core/collector.h"
#include "core/sales_workload.h"
#include "core/workload_manager.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "sut/profiles.h"

namespace cloudybench::obs {
namespace {

using sim::Micros;

TEST(ProfilerTest, EmptyTraceYieldsOnlyRoot) {
  TraceRecorder recorder;
  Profiler profile = Profiler::FromTrace(recorder);
  ASSERT_EQ(profile.nodes().size(), 1u);
  EXPECT_TRUE(profile.nodes()[0].children.empty());
  EXPECT_EQ(profile.total_exclusive_us(), 0);
  EXPECT_EQ(profile.CollapsedStack(), "");
}

TEST(ProfilerTest, MergesRepeatedStacksAndComputesExclusive) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);

  // Two transactions with the same shape: txn > op.get > cpu.charge.
  // Expect one merged path with count 2 at every node.
  for (int64_t base : {int64_t{0}, int64_t{1000}}) {
    uint64_t track = recorder.NewTrack();
    SpanHandle root =
        recorder.Begin(track, Layer::kTxn, "txn", Micros(base), /*label=*/1);
    SpanHandle op =
        recorder.Begin(track, Layer::kOp, "op.get", Micros(base + 10));
    SpanHandle cpu =
        recorder.Begin(track, Layer::kCpu, "cpu.charge", Micros(base + 20));
    recorder.End(cpu, Micros(base + 50));
    recorder.End(op, Micros(base + 70));
    recorder.MarkCommitted(root);
    recorder.End(root, Micros(base + 100));
  }

  Profiler profile = Profiler::FromTrace(recorder);
  // root + txn + op.get + cpu.charge
  ASSERT_EQ(profile.nodes().size(), 4u);
  const Profiler::Node& txn = profile.nodes()[1];
  EXPECT_STREQ(txn.name, "txn");
  EXPECT_EQ(txn.count, 2);
  EXPECT_EQ(txn.inclusive_us, 200);
  EXPECT_EQ(txn.exclusive_us, 200 - 120);  // minus the two op.get spans
  ASSERT_EQ(txn.children.size(), 1u);
  const Profiler::Node& op = profile.nodes()[static_cast<size_t>(txn.children[0])];
  EXPECT_STREQ(op.name, "op.get");
  EXPECT_EQ(op.count, 2);
  EXPECT_EQ(op.inclusive_us, 120);
  EXPECT_EQ(op.exclusive_us, 120 - 60);
  ASSERT_EQ(op.children.size(), 1u);
  const Profiler::Node& cpu = profile.nodes()[static_cast<size_t>(op.children[0])];
  EXPECT_EQ(cpu.count, 2);
  EXPECT_EQ(cpu.inclusive_us, 60);
  EXPECT_EQ(cpu.exclusive_us, 60);

  // Total exclusive time equals total root-span (inclusive) time: the tree
  // partitions it.
  EXPECT_EQ(profile.total_exclusive_us(), 200);
  EXPECT_EQ(profile.ExclusiveUsByLayer(Layer::kCpu), 60);

  EXPECT_EQ(profile.CollapsedStack(),
            "txn 80\n"
            "txn;op.get 60\n"
            "txn;op.get;cpu.charge 60\n");
  EXPECT_FALSE(profile.has_wall_time());

  std::string chrome = profile.ChromeTraceJson();
  EXPECT_NE(chrome.find("\"name\":\"op.get\""), std::string::npos);
  EXPECT_NE(chrome.find("\"count\":2"), std::string::npos);
}

TEST(ProfilerTest, SiblingsWithSameNameMergeAcrossTracks) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);

  // Track 1: txn > {op.get, op.update}. Track 2: txn > op.get. The two
  // op.get instances under txn merge; op.update is a separate child, and
  // children come out name-sorted in the collapsed output.
  uint64_t t1 = recorder.NewTrack();
  SpanHandle r1 = recorder.Begin(t1, Layer::kTxn, "txn", Micros(0), 0);
  SpanHandle g1 = recorder.Begin(t1, Layer::kOp, "op.get", Micros(0));
  recorder.End(g1, Micros(40));
  SpanHandle u1 = recorder.Begin(t1, Layer::kOp, "op.update", Micros(40));
  recorder.End(u1, Micros(90));
  recorder.MarkCommitted(r1);
  recorder.End(r1, Micros(100));

  uint64_t t2 = recorder.NewTrack();
  SpanHandle r2 = recorder.Begin(t2, Layer::kTxn, "txn", Micros(500), 0);
  SpanHandle g2 = recorder.Begin(t2, Layer::kOp, "op.get", Micros(510));
  recorder.End(g2, Micros(540));
  recorder.MarkCommitted(r2);
  recorder.End(r2, Micros(560));

  Profiler profile = Profiler::FromTrace(recorder);
  EXPECT_EQ(profile.CollapsedStack(),
            "txn 40\n"
            "txn;op.get 70\n"
            "txn;op.update 50\n");
}

TEST(ProfilerTest, ProfilesEveryTrackCommittedOrNot) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);

  uint64_t committed = recorder.NewTrack();
  SpanHandle ok = recorder.Begin(committed, Layer::kTxn, "txn", Micros(0), 0);
  recorder.MarkCommitted(ok);
  recorder.End(ok, Micros(100));

  uint64_t aborted = recorder.NewTrack();
  SpanHandle bad = recorder.Begin(aborted, Layer::kTxn, "txn", Micros(0), 0);
  recorder.End(bad, Micros(900));  // never marked committed

  uint64_t infra = recorder.NewTrack();  // no kTxn root at all (e.g. wal)
  SpanHandle flush =
      recorder.Begin(infra, Layer::kLog, "log.flush_batch", Micros(0));
  recorder.End(flush, Micros(50));

  // Unlike LatencyBreakdown, the whole-cell profile keeps aborted and
  // infrastructure tracks.
  Profiler everything = Profiler::FromTrace(recorder);
  EXPECT_EQ(everything.total_exclusive_us(), 100 + 900 + 50);
}

// ---- a real traced cell ------------------------------------------------

struct TracedCell {
  std::string collapsed;
  std::string chrome;
  Profiler profile;
};

/// Runs a short traced workload (same harness as the obs determinism test)
/// and returns its profile.
TracedCell RunTracedCell(uint64_t seed, bool wall_capture = false) {
  TraceRecorder& recorder = TraceRecorder::Get();
  recorder.SetEnabled(true);
  recorder.SetWallCapture(wall_capture);
  recorder.Clear();

  SalesWorkloadConfig cfg;
  cfg.ratios = {15, 5, 70, 10};
  cfg.seed = seed;
  SalesTransactionSet txns(cfg);

  sim::Environment env;
  cloud::ClusterConfig cluster_cfg = sut::MakeProfile(sut::SutKind::kAwsRds);
  sut::FreezeAtMaxCapacity(&cluster_cfg);
  cloud::Cluster cluster(&env, cluster_cfg, /*n_ro=*/1);
  cluster.Load(txns.Schemas(), /*scale_factor=*/1);
  cluster.PrewarmBuffers();

  PerformanceCollector collector(&env);
  collector.Start();
  WorkloadManager manager(&env, &cluster, &txns, &collector);
  manager.SetConcurrency(8);
  env.RunFor(sim::Millis(400));
  manager.StopAll();
  for (int i = 0; i < 600 && manager.concurrency() > 0; ++i) {
    env.RunFor(sim::Millis(100));
  }
  EXPECT_EQ(manager.concurrency(), 0);
  EXPECT_GT(recorder.span_count(), 0u);

  TracedCell out;
  out.profile = Profiler::FromTrace(recorder);
  out.collapsed = out.profile.CollapsedStack();
  out.chrome = out.profile.ChromeTraceJson();
  recorder.SetEnabled(false);
  recorder.SetWallCapture(false);
  recorder.Clear();
  return out;
}

TEST(ProfilerCellTest, ArtifactsAreByteIdenticalAcrossRuns) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TracedCell first = RunTracedCell(11);
  TracedCell second = RunTracedCell(11);
  EXPECT_GT(first.collapsed.size(), 100u);
  // The merged tree sees infrastructure tracks (wal flushes), not only
  // transactions.
  EXPECT_NE(first.collapsed.find("log.flush_batch"), std::string::npos);
  EXPECT_EQ(first.collapsed, second.collapsed);
  EXPECT_EQ(first.chrome, second.chrome);
}

TEST(ProfilerCellTest, WallCaptureFillsWallTimeButNotArtifacts) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TracedCell timed = RunTracedCell(11, /*wall_capture=*/true);
  TracedCell untimed = RunTracedCell(11, /*wall_capture=*/false);

  EXPECT_TRUE(timed.profile.has_wall_time());
  EXPECT_FALSE(untimed.profile.has_wall_time());
  // Wall stamps never perturb the byte-stable sim-time artifacts.
  EXPECT_EQ(timed.collapsed, untimed.collapsed);
  EXPECT_EQ(timed.chrome, untimed.chrome);
  // The wall report renders and mentions at least the txn root.
  std::string report = timed.profile.WallReport();
  EXPECT_NE(report.find("txn"), std::string::npos);
}

}  // namespace
}  // namespace cloudybench::obs

// Observability subsystem tests: trace recorder semantics (nesting,
// ordering, epoch-guarded handles), the exclusive-time latency breakdown,
// exporter output (golden strings), the metric registry, and the headline
// determinism property — the same seed produces byte-identical Chrome
// traces across independent runs.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cluster.h"
#include "core/collector.h"
#include "core/sales_workload.h"
#include "core/workload_manager.h"
#include "obs/breakdown.h"
#include "obs/exporters.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "sut/profiles.h"
#include "util/stats.h"

namespace cloudybench::obs {
namespace {

using sim::Micros;

TEST(TraceRecorderTest, DisabledRecordsNothing) {
  TraceRecorder recorder;
  ASSERT_FALSE(recorder.enabled());
  SpanHandle handle = recorder.Begin(1, Layer::kCpu, "cpu.charge", Micros(0));
  EXPECT_FALSE(handle.valid);
  recorder.End(handle, Micros(10));
  recorder.Instant(1, Layer::kNet, "mark", Micros(5));
  recorder.SetTrackName(1, "client");
  EXPECT_EQ(recorder.span_count(), 0u);
  EXPECT_TRUE(recorder.track_names().empty());
}

TEST(TraceRecorderTest, SpansRecordInOrderAndNest) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  uint64_t track = recorder.NewTrack();
  SpanHandle root =
      recorder.Begin(track, Layer::kTxn, "txn", Micros(0), /*label=*/3);
  SpanHandle cpu = recorder.Begin(track, Layer::kCpu, "cpu.charge", Micros(10));
  recorder.End(cpu, Micros(30));
  recorder.MarkCommitted(root);
  recorder.End(root, Micros(100));

  ASSERT_EQ(recorder.span_count(), 2u);
  const Span& s0 = recorder.spans()[0];  // recording order == Begin order
  const Span& s1 = recorder.spans()[1];
  EXPECT_EQ(s0.layer, Layer::kTxn);
  EXPECT_EQ(s0.begin_us, 0);
  EXPECT_EQ(s0.end_us, 100);
  EXPECT_EQ(s0.label, 3);
  EXPECT_TRUE(s0.committed);
  EXPECT_EQ(s1.layer, Layer::kCpu);
  EXPECT_EQ(s1.begin_us, 10);
  EXPECT_EQ(s1.end_us, 30);
  EXPECT_FALSE(s1.committed);
  // The child's interval is contained in the parent's.
  EXPECT_LE(s0.begin_us, s1.begin_us);
  EXPECT_GE(s0.end_us, s1.end_us);

  // End is idempotent: a second End must not move the timestamp.
  recorder.End(cpu, Micros(999));
  EXPECT_EQ(recorder.spans()[1].end_us, 30);
}

TEST(TraceRecorderTest, ClearInvalidatesOutstandingHandles) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  uint64_t track = recorder.NewTrack();
  SpanHandle stale = recorder.Begin(track, Layer::kLock, "lock.wait", Micros(0));
  recorder.Clear();
  ASSERT_EQ(recorder.span_count(), 0u);

  // A new span recycles index 0; the stale handle must not touch it.
  SpanHandle fresh =
      recorder.Begin(recorder.NewTrack(), Layer::kCpu, "cpu.charge", Micros(5));
  recorder.End(stale, Micros(7));
  recorder.MarkCommitted(stale);
  EXPECT_EQ(recorder.spans()[0].end_us, -1);
  EXPECT_FALSE(recorder.spans()[0].committed);
  recorder.End(fresh, Micros(9));
  EXPECT_EQ(recorder.spans()[0].end_us, 9);
}

TEST(SpanScopeTest, BracketsSimTimeAndSkipsWhenDisabled) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  sim::Environment env;
  TraceRecorder& recorder = TraceRecorder::Get();
  recorder.SetEnabled(true);
  recorder.Clear();
  uint64_t track = recorder.NewTrack();
  {
    SpanScope scope(&env, track, Layer::kNet, "net.client_rtt");
    env.RunFor(Micros(250));
  }
  ASSERT_EQ(recorder.span_count(), 1u);
  EXPECT_EQ(recorder.spans()[0].end_us - recorder.spans()[0].begin_us, 250);

  recorder.SetEnabled(false);
  {
    SpanScope scope(&env, track, Layer::kNet, "net.client_rtt");
    env.RunFor(Micros(250));
  }
  EXPECT_EQ(recorder.span_count(), 1u);
  recorder.Clear();
}

// ---- latency breakdown --------------------------------------------------

TEST(LatencyBreakdownTest, ExclusiveTimePerLayerSumsToTotal) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  uint64_t track = recorder.NewTrack();
  // txn [0,100] > op [0,100] > { cpu [10,30], lock [30,60] }
  SpanHandle root = recorder.Begin(track, Layer::kTxn, "txn", Micros(0), 2);
  SpanHandle op = recorder.Begin(track, Layer::kOp, "op.get", Micros(0));
  SpanHandle cpu = recorder.Begin(track, Layer::kCpu, "cpu.charge", Micros(10));
  recorder.End(cpu, Micros(30));
  SpanHandle lock = recorder.Begin(track, Layer::kLock, "lock.wait", Micros(30));
  recorder.End(lock, Micros(60));
  recorder.End(op, Micros(100));
  recorder.MarkCommitted(root);
  recorder.End(root, Micros(100));

  LatencyBreakdown breakdown = LatencyBreakdown::FromTrace(recorder);
  ASSERT_EQ(breakdown.rows().size(), 1u);
  const LatencyBreakdown::Row& row = breakdown.rows()[0];
  EXPECT_EQ(row.label, 2);
  EXPECT_EQ(row.txns, 1);
  EXPECT_DOUBLE_EQ(row.total_ms, 0.1);
  EXPECT_DOUBLE_EQ(row.layer_ms[static_cast<int>(Layer::kCpu)], 0.02);
  EXPECT_DOUBLE_EQ(row.layer_ms[static_cast<int>(Layer::kLock)], 0.03);
  // op is charged only for time not covered by cpu/lock; the root is fully
  // covered by op.
  EXPECT_DOUBLE_EQ(row.layer_ms[static_cast<int>(Layer::kOp)], 0.05);
  EXPECT_DOUBLE_EQ(row.layer_ms[static_cast<int>(Layer::kTxn)], 0.0);
  double sum = 0;
  for (double ms : row.layer_ms) sum += ms;
  EXPECT_DOUBLE_EQ(sum, row.total_ms);
}

TEST(LatencyBreakdownTest, SiblingsPopAndEqualBoundariesNest) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);

  // Track A: back-to-back siblings sharing a boundary instant.
  uint64_t a = recorder.NewTrack();
  SpanHandle root_a = recorder.Begin(a, Layer::kTxn, "txn", Micros(0), 0);
  SpanHandle c1 = recorder.Begin(a, Layer::kCpu, "cpu.charge", Micros(0));
  recorder.End(c1, Micros(40));
  SpanHandle c2 = recorder.Begin(a, Layer::kCpu, "cpu.charge", Micros(40));
  recorder.End(c2, Micros(100));
  recorder.MarkCommitted(root_a);
  recorder.End(root_a, Micros(100));

  // Track B: abort-style tie — the inner span closes at the same sim time
  // as the root. Equal boundaries count as nesting, not a sibling pop.
  uint64_t b = recorder.NewTrack();
  SpanHandle root_b = recorder.Begin(b, Layer::kTxn, "txn", Micros(0), 0);
  SpanHandle inner = recorder.Begin(b, Layer::kLock, "lock.wait", Micros(50));
  recorder.End(inner, Micros(100));
  recorder.MarkCommitted(root_b);
  recorder.End(root_b, Micros(100));

  LatencyBreakdown breakdown = LatencyBreakdown::FromTrace(recorder);
  ASSERT_EQ(breakdown.rows().size(), 1u);
  const LatencyBreakdown::Row& row = breakdown.rows()[0];
  EXPECT_EQ(row.txns, 2);
  EXPECT_DOUBLE_EQ(row.total_ms, 0.2);
  // A: cpu 0.1, txn 0.  B: lock 0.05, txn 0.05 exclusive.
  EXPECT_DOUBLE_EQ(row.layer_ms[static_cast<int>(Layer::kCpu)], 0.1);
  EXPECT_DOUBLE_EQ(row.layer_ms[static_cast<int>(Layer::kLock)], 0.05);
  EXPECT_DOUBLE_EQ(row.layer_ms[static_cast<int>(Layer::kTxn)], 0.05);
}

TEST(LatencyBreakdownTest, ExcludesAbortedUnlabeledAndOpenRoots) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);

  // Aborted (never marked committed).
  uint64_t a = recorder.NewTrack();
  recorder.End(recorder.Begin(a, Layer::kTxn, "txn", Micros(0), 1), Micros(10));
  // Unlabeled root.
  uint64_t b = recorder.NewTrack();
  SpanHandle rb = recorder.Begin(b, Layer::kTxn, "txn", Micros(0));
  recorder.MarkCommitted(rb);
  recorder.End(rb, Micros(10));
  // Root still open at snapshot time.
  uint64_t c = recorder.NewTrack();
  recorder.Begin(c, Layer::kTxn, "txn", Micros(0), 1);
  // One qualifying transaction.
  uint64_t d = recorder.NewTrack();
  SpanHandle rd = recorder.Begin(d, Layer::kTxn, "txn", Micros(0), 1);
  recorder.MarkCommitted(rd);
  recorder.End(rd, Micros(20));

  LatencyBreakdown breakdown = LatencyBreakdown::FromTrace(recorder);
  ASSERT_EQ(breakdown.rows().size(), 1u);
  EXPECT_EQ(breakdown.rows()[0].txns, 1);
  EXPECT_EQ(breakdown.rows()[0].label, 1);
  EXPECT_DOUBLE_EQ(breakdown.rows()[0].total_ms, 0.02);
}

// ---- exporters ----------------------------------------------------------

TEST(ChromeTraceJsonTest, GoldenOutput) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  TraceRecorder recorder;
  recorder.SetEnabled(true);
  uint64_t track = recorder.NewTrack();
  recorder.SetTrackName(track, "client");
  SpanHandle root = recorder.Begin(track, Layer::kTxn, "txn", Micros(0), 2);
  SpanHandle cpu = recorder.Begin(track, Layer::kCpu, "cpu.charge", Micros(10));
  recorder.End(cpu, Micros(30));
  recorder.MarkCommitted(root);
  recorder.End(root, Micros(100));
  // An open span must be skipped (no end time to serialize).
  recorder.Begin(track, Layer::kNet, "net.client_rtt", Micros(40));

  const std::string expected =
      "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
      "\"args\":{\"name\":\"cloudybench\"}},\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\","
      "\"args\":{\"name\":\"client\"}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":0,\"dur\":100,"
      "\"cat\":\"txn\",\"name\":\"txn\","
      "\"args\":{\"label\":2,\"committed\":true}},\n"
      "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":10,\"dur\":20,"
      "\"cat\":\"cpu\",\"name\":\"cpu.charge\"}\n"
      "]}\n";
  EXPECT_EQ(ChromeTraceJson(recorder), expected);
}

TEST(MetricsJsonlTest, GoldenCounterAndGauge) {
  MetricRegistry registry;
  registry.GetCounter("x.count")->Add(3);
  registry.SetGauge("x.g", 1.5);
  EXPECT_EQ(MetricsJsonl(registry),
            "{\"name\":\"x.count\",\"type\":\"counter\",\"value\":3}\n"
            "{\"name\":\"x.g\",\"type\":\"gauge\",\"value\":1.5}\n");
}

TEST(MetricsJsonlTest, HistogramAndSeriesEntries) {
  MetricRegistry registry;
  Histogram histogram;
  histogram.Add(100);
  histogram.Add(200);
  histogram.Add(300);
  util::TimeSeries series;
  series.Add(0.5, 10);
  series.Add(1.0, 20);
  registry.RegisterHistogram("h", &histogram);
  registry.RegisterSeries("s", &series);

  std::string jsonl = MetricsJsonl(registry);
  EXPECT_NE(jsonl.find("\"name\":\"h\",\"type\":\"histogram\",\"count\":3"),
            std::string::npos);
  EXPECT_NE(jsonl.find("\"mean_us\":200"), std::string::npos);
  EXPECT_NE(jsonl.find("\"name\":\"s\",\"type\":\"series\","
                       "\"points\":[[0.5,10],[1,20]]"),
            std::string::npos);
}

// ---- metric registry ----------------------------------------------------

TEST(MetricRegistryTest, CountersAreStableAndPrefixUnregisters) {
  MetricRegistry registry;
  Counter* counter = registry.GetCounter("a.x");
  counter->Add(2);
  EXPECT_EQ(registry.GetCounter("a.x"), counter);  // find, not recreate
  EXPECT_EQ(registry.GetCounter("a.x")->value(), 2);
  registry.GetCounter("a.y");
  registry.GetCounter("b.x");
  registry.SetGauge("a.g", 7);
  EXPECT_EQ(registry.size(), 4u);

  registry.UnregisterPrefix("a.");
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.counters().count("b.x"), 1u);
  EXPECT_EQ(registry.GetCounter("a.x")->value(), 0);  // recreated fresh

  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricRegistryTest, GaugesEvaluateAtSnapshotTime) {
  MetricRegistry registry;
  double live = 1.0;
  registry.RegisterGauge("g", [&live] { return live; });
  EXPECT_DOUBLE_EQ(registry.GaugeValues().at("g"), 1.0);
  live = 42.0;
  EXPECT_DOUBLE_EQ(registry.GaugeValues().at("g"), 42.0);
}

TEST(MetricRegistryTest, CollectorRegistersSeriesAndHistograms) {
  sim::Environment env;
  PerformanceCollector collector(&env);
  MetricRegistry registry;
  collector.RegisterWith(&registry, "t.");
  EXPECT_EQ(registry.series().count("t.tps"), 1u);
  EXPECT_EQ(registry.histograms().count("t.latency.all"), 1u);
  EXPECT_EQ(registry.histograms().count(std::string("t.latency.") +
                                        TxnTypeName(TxnType::kNewOrderline)),
            1u);
  EXPECT_EQ(registry.GaugeValues().count("t.commits"), 1u);
  registry.UnregisterPrefix("t.");
  EXPECT_EQ(registry.size(), 0u);
}

// ---- determinism property -----------------------------------------------

/// Runs a short traced workload against a fresh RDS deployment and returns
/// the serialized Chrome trace.
std::string TracedRunBytes(uint64_t seed) {
  TraceRecorder& recorder = TraceRecorder::Get();
  recorder.SetEnabled(true);
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
  env.RunFor(sim::Millis(500));
  manager.StopAll();
  for (int i = 0; i < 600 && manager.concurrency() > 0; ++i) {
    env.RunFor(sim::Millis(100));
  }
  EXPECT_EQ(manager.concurrency(), 0);

  std::string bytes = ChromeTraceJson(recorder);
  EXPECT_GT(recorder.span_count(), 0u);
  recorder.SetEnabled(false);
  recorder.Clear();
  return bytes;
}

TEST(DeterminismTest, SameSeedProducesIdenticalTraceBytes) {
  if (!kCompiled) GTEST_SKIP() << "observability compiled out";
  std::string first = TracedRunBytes(7);
  std::string second = TracedRunBytes(7);
  EXPECT_GT(first.size(), 1000u);
  EXPECT_EQ(first, second);
}

TEST(DeterminismTest, InstrumentedRunWithTracingOffRecordsNothing) {
  TraceRecorder& recorder = TraceRecorder::Get();
  recorder.SetEnabled(false);
  recorder.Clear();

  SalesTransactionSet txns(SalesWorkloadConfig::ReadWrite());
  sim::Environment env;
  cloud::ClusterConfig cluster_cfg = sut::MakeProfile(sut::SutKind::kAwsRds);
  sut::FreezeAtMaxCapacity(&cluster_cfg);
  cloud::Cluster cluster(&env, cluster_cfg, /*n_ro=*/1);
  cluster.Load(txns.Schemas(), /*scale_factor=*/1);
  cluster.PrewarmBuffers();
  PerformanceCollector collector(&env);
  collector.Start();
  WorkloadManager manager(&env, &cluster, &txns, &collector);
  manager.SetConcurrency(4);
  env.RunFor(sim::Millis(200));
  manager.StopAll();
  for (int i = 0; i < 600 && manager.concurrency() > 0; ++i) {
    env.RunFor(sim::Millis(100));
  }
  EXPECT_EQ(manager.concurrency(), 0);
  EXPECT_GT(collector.commits(), 0);
  EXPECT_EQ(recorder.span_count(), 0u);
  recorder.Clear();
}

}  // namespace
}  // namespace cloudybench::obs

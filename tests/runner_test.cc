// Tests for the experiment-matrix runner (src/runner/): deterministic
// collection across thread counts, failure isolation, cell-id and path
// templating, and the JSONL/trace artifact plumbing.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/evaluators.h"
#include "core/metrics.h"
#include "core/tenancy.h"
#include "runner/oltp_cell.h"
#include "runner/runner.h"
#include "runner/section_cells.h"
#include "util/logging.h"
#include "util/random.h"

namespace cloudybench::runner {
namespace {

/// A small but real OLTP matrix: 2 SUTs x 2 modes, short windows. Real
/// cells (full cluster + workload) are the point — determinism must hold
/// for the actual simulations, not a stub.
std::vector<CellSpec> SmallOltpMatrix(uint64_t seed) {
  std::vector<CellSpec> cells;
  for (sut::SutKind kind : {sut::SutKind::kAwsRds, sut::SutKind::kCdb3}) {
    for (const char* mode : {"RO", "RW"}) {
      CellSpec spec;
      spec.sut = kind;
      spec.scale_factor = 1;
      spec.n_ro = 0;
      spec.concurrency = 20;
      spec.pattern = mode;
      spec.seed = seed;
      // The collector's TPS series samples once per window (1s); the
      // measure window must cover at least a couple of samples.
      spec.warmup = sim::Seconds(1);
      spec.measure = sim::Seconds(2);
      cells.push_back(spec);
    }
  }
  return cells;
}

std::vector<std::string> JsonLines(const std::vector<CellResult>& results) {
  std::vector<std::string> lines;
  for (const CellResult& r : results) lines.push_back(ToJsonLine(r));
  return lines;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(MatrixRunnerTest, ByteIdenticalAcrossJobCounts) {
  std::vector<CellSpec> cells = SmallOltpMatrix(/*seed=*/42);

  RunnerOptions serial;
  serial.jobs = 1;
  serial.print_summary = false;
  std::vector<CellResult> r1 = MatrixRunner(serial).Run(cells, RunOltpCell);

  RunnerOptions wide;
  wide.jobs = 8;
  wide.print_summary = false;
  std::vector<CellResult> r8 = MatrixRunner(wide).Run(cells, RunOltpCell);

  ASSERT_EQ(r1.size(), cells.size());
  ASSERT_EQ(r8.size(), cells.size());
  // The serialized rows — every column, every formatted digit — must match
  // byte for byte; this is the artifact-level determinism contract.
  EXPECT_EQ(JsonLines(r1), JsonLines(r8));
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_TRUE(r1[i].ok) << r1[i].error;
    EXPECT_GT(r1[i].Number("tps"), 0) << r1[i].id;
  }
}

TEST(MatrixRunnerTest, ResultsComeBackInMatrixOrder) {
  std::vector<CellSpec> cells = SmallOltpMatrix(/*seed=*/7);
  RunnerOptions options;
  options.jobs = 4;
  options.print_summary = false;
  std::vector<CellResult> results =
      MatrixRunner(options).Run(cells, RunOltpCell);
  ASSERT_EQ(results.size(), cells.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].index, i);
    EXPECT_EQ(results[i].id, DefaultCellId(cells[i]));
  }
}

TEST(MatrixRunnerTest, ThrowingCellBecomesErrorRowOthersSurvive) {
  std::vector<CellSpec> cells(3);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].id = "cell" + std::to_string(i);
  }
  RunnerOptions options;
  options.jobs = 2;
  options.print_summary = false;
  std::vector<CellResult> results = MatrixRunner(options).Run(
      cells, [](const CellContext& ctx) -> CellResult {
        if (ctx.index == 1) throw std::runtime_error("deliberate failure");
        CellResult result;
        result.ok = true;
        result.AddMetric("answer", 42.0, 0);
        return result;
      });
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(results[0].ok);
  EXPECT_FALSE(results[1].ok);
  EXPECT_EQ(results[1].error, "deliberate failure");
  EXPECT_EQ(results[1].id, "cell1");
  EXPECT_TRUE(results[2].ok);
  EXPECT_EQ(results[2].Text("answer"), "42");
}

TEST(MatrixRunnerTest, ResolveJobsClampsToMatrixAndHardware) {
  RunnerOptions fixed;
  fixed.jobs = 8;
  EXPECT_EQ(MatrixRunner(fixed).ResolveJobs(3), 3);
  EXPECT_EQ(MatrixRunner(fixed).ResolveJobs(100), 8);

  RunnerOptions automatic;  // jobs=0 -> hardware_concurrency
  int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw == 0) hw = 1;
  EXPECT_EQ(MatrixRunner(automatic).ResolveJobs(1000), hw);
  EXPECT_EQ(MatrixRunner(automatic).ResolveJobs(1), 1);
}

TEST(MatrixRunnerTest, WritesJsonlArtifactInMatrixOrder) {
  std::string path = testing::TempDir() + "/runner_test_rows.jsonl";
  std::remove(path.c_str());

  std::vector<CellSpec> cells(4);
  for (size_t i = 0; i < cells.size(); ++i) {
    cells[i].id = "c" + std::to_string(i);
  }
  RunnerOptions options;
  options.jobs = 4;
  options.jsonl_path = path;
  options.print_summary = false;
  std::vector<CellResult> results = MatrixRunner(options).Run(
      cells, [](const CellContext& ctx) {
        CellResult result;
        result.ok = true;
        result.AddMetric("idx", static_cast<double>(ctx.index), 0);
        return result;
      });

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string line;
  size_t n = 0;
  while (std::getline(in, line)) {
    EXPECT_EQ(line, ToJsonLine(results[n])) << "line " << n;
    EXPECT_NE(line.find("\"cell\":\"c" + std::to_string(n) + "\""),
              std::string::npos)
        << line;
    ++n;
  }
  EXPECT_EQ(n, cells.size());
  std::remove(path.c_str());
}

TEST(MatrixRunnerTest, TraceTemplateWritesPerCellChromeTrace) {
  std::string tmpl = testing::TempDir() + "/runner_test_{sut}_{index}.json";
  CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.concurrency = 10;
  spec.warmup = sim::Millis(100);
  spec.measure = sim::Millis(200);
  std::string expected = ExpandCellTemplate(tmpl, spec, 0);
  std::remove(expected.c_str());

  RunnerOptions options;
  options.jobs = 1;
  options.trace_template = tmpl;
  options.print_summary = false;
  std::vector<CellResult> results =
      MatrixRunner(options).Run({spec}, RunOltpCell);
  ASSERT_TRUE(results[0].ok) << results[0].error;

  std::string trace = ReadFile(expected);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos)
      << expected << " is not a Chrome trace (" << trace.substr(0, 80) << ")";
  EXPECT_NE(trace.find("txn"), std::string::npos)
      << "trace has no transaction spans";
  std::remove(expected.c_str());
}

TEST(MatrixRunnerTest, ProfileArtifactsAreByteIdenticalAcrossJobCounts) {
  std::vector<CellSpec> cells = SmallOltpMatrix(/*seed=*/42);

  // Two sweeps of the same matrix, one worker vs eight: every per-cell
  // profile artifact (collapsed stacks and merged-tree Chrome trace) must
  // come out byte-for-byte identical — the profiler reads only sim-time
  // spans, never anything host-dependent.
  auto sweep = [&cells](int jobs, const std::string& tag) {
    RunnerOptions options;
    options.jobs = jobs;
    options.print_summary = false;
    options.profile_collapsed_template =
        testing::TempDir() + "/prof_" + tag + "_{index}.collapsed";
    options.profile_chrome_template =
        testing::TempDir() + "/prof_" + tag + "_{index}.json";
    std::vector<CellResult> results =
        MatrixRunner(options).Run(cells, RunOltpCell);
    std::vector<std::string> artifacts;
    for (size_t i = 0; i < cells.size(); ++i) {
      for (const std::string& tmpl : {options.profile_collapsed_template,
                                      options.profile_chrome_template}) {
        std::string path = ExpandCellTemplate(tmpl, cells[i], i);
        artifacts.push_back(ReadFile(path));
        std::remove(path.c_str());
      }
    }
    return artifacts;
  };

  std::vector<std::string> serial = sweep(1, "j1");
  std::vector<std::string> wide = sweep(8, "j8");
  ASSERT_EQ(serial.size(), wide.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_GT(serial[i].size(), 0u) << "artifact " << i << " is empty";
    EXPECT_EQ(serial[i], wide[i]) << "artifact " << i << " differs";
  }
  // The collapsed output contains real span paths from the txn layer down.
  EXPECT_NE(serial[0].find("txn;"), std::string::npos);
}

TEST(CellSpecTest, DefaultCellIdNamesTheCoordinates) {
  CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.scale_factor = 10;
  spec.pattern = "RW";
  spec.concurrency = 150;
  spec.seed = 42;
  EXPECT_EQ(DefaultCellId(spec), "CDB3/sf10/RW/con150/seed42");
}

TEST(CellSpecTest, TemplateExpansionIsPathSafe) {
  CellSpec spec;
  spec.sut = sut::SutKind::kAwsRds;  // SutName contains a space
  spec.scale_factor = 100;
  spec.pattern = "WO";
  spec.concurrency = 50;
  spec.seed = 7;
  EXPECT_EQ(ExpandCellTemplate("t/{sut}-sf{sf}-{pattern}-{con}-{seed}.json",
                               spec, 3),
            "t/AWS-RDS-sf100-WO-50-7.json");
  // {id} folds its '/' separators so it stays one path component.
  EXPECT_EQ(ExpandCellTemplate("{id}.json", spec, 3),
            "AWS-RDS-sf100-WO-con50-seed7.json");
  EXPECT_EQ(ExpandCellTemplate("{index}.json", spec, 3), "3.json");
  // Unknown placeholders pass through untouched.
  EXPECT_EQ(ExpandCellTemplate("{nope}-{sf}", spec, 0), "{nope}-100");
}

TEST(CellResultTest, JsonLineShapes) {
  CellResult result;
  result.id = "CDB3/sf1/RW/con100/seed42";
  result.index = 2;
  result.ok = true;
  result.sim_seconds = 3.0;
  result.wall_ms = 123.456;  // must NOT appear in the serialized row
  result.AddMetric("tps", 1234.75, 0);
  result.AddText("range", "0.50-3.25");
  std::string line = ToJsonLine(result);
  EXPECT_EQ(line,
            "{\"cell\":\"CDB3/sf1/RW/con100/seed42\",\"index\":2,"
            "\"ok\":true,\"sim_seconds\":3.000,\"tps\":1235,"
            "\"range\":\"0.50-3.25\"}");

  CellResult failed;
  failed.id = "x";
  failed.index = 0;
  failed.error = "boom \"quoted\"";
  EXPECT_EQ(ToJsonLine(failed),
            "{\"cell\":\"x\",\"index\":0,\"ok\":false,"
            "\"error\":\"boom \\\"quoted\\\"\",\"sim_seconds\":0.000}");
}

// ---- Multi-tenant rows: tenant cells + MergeTenantRows (oltp_cell.h) -----
//
// A multi-tenant row is sharded into one ordinary runner cell per tenant;
// the suite name keeps that shape. The merge tests below are pure: hand-
// built tenant rows, no simulation.

TEST(ShardedCellTest, TenantSpecSplitsSeedByIndexOnly) {
  CellSpec cell;
  cell.sut = sut::SutKind::kCdb3;
  cell.concurrency = 20;
  cell.seed = 42;

  CellSpec t3 = TenantSpec(cell, 3);
  EXPECT_EQ(t3.seed, util::SplitSeed(42, util::kTenantStream, 3));
  EXPECT_EQ(t3.id, DefaultCellId(cell) + "/tenant3");
  EXPECT_EQ(t3.concurrency, 20);
  // Distinct tenants get independent streams.
  EXPECT_NE(TenantSpec(cell, 4).seed, t3.seed);
  // An explicit cell id prefixes the tenant ids.
  cell.id = "big";
  EXPECT_EQ(TenantSpec(cell, 3).id, "big/tenant3");
  EXPECT_EQ(TenantSpec(cell, 3).seed, t3.seed);
}

TEST(ShardedCellTest, DefaultCellIdAppendsTenantsOnlyWhenMultiTenant) {
  CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.scale_factor = 1;
  spec.concurrency = 100;
  spec.seed = 42;
  // A plain cell's id never carries a tenant count; the merged row's does.
  EXPECT_EQ(DefaultCellId(spec), "CDB3/sf1/RW/con100/seed42");
  std::vector<CellResult> rows(8);
  for (CellResult& r : rows) r.ok = true;
  EXPECT_EQ(MergeTenantRows(spec, rows).id, "CDB3/sf1/RW/con100/seed42/t8");
  spec.id = "big";
  EXPECT_EQ(MergeTenantRows(spec, rows).id, "big");
}

/// A hand-built tenant row with the columns the merge reads.
CellResult TenantRow(double tps, double commits, double p99_ms,
                     double sim_seconds) {
  CellResult r;
  r.ok = true;
  r.AddMetric("tps", tps, 0);
  r.AddMetric("p99_ms", p99_ms, 2);
  r.AddMetric("commits", commits, 0);
  r.sim_seconds = sim_seconds;
  return r;
}

TEST(MergeTenantRowsTest, FailedTenantIsLeftOutAndNamedByFirstIndex) {
  CellSpec cell;
  std::vector<CellResult> rows = {
      TenantRow(100, 300, 10, 2), TenantRow(999, 999, 99, 9),
      TenantRow(50, 100, 20, 3), TenantRow(999, 999, 99, 9)};
  rows[1].ok = false;
  rows[1].error = "boom";
  rows[3].ok = false;
  rows[3].error = "later";

  CellResult merged = MergeTenantRows(cell, rows);
  EXPECT_FALSE(merged.ok);
  EXPECT_EQ(merged.error, "tenant 1: boom");
  EXPECT_EQ(merged.Text("t0_tps"), "100");
  EXPECT_EQ(merged.Text("t1_tps"), "0");
  EXPECT_EQ(merged.Text("t2_tps"), "50");
  EXPECT_EQ(merged.Text("t3_tps"), "0");
  // Sums and weights see only the ok tenants.
  EXPECT_DOUBLE_EQ(merged.Number("tps"), 150);
  EXPECT_DOUBLE_EQ(merged.Number("commits"), 400);
  EXPECT_EQ(merged.Text("p99_ms"), "12.50");  // (10*300 + 20*100) / 400
  EXPECT_DOUBLE_EQ(merged.sim_seconds, 5);
}

TEST(MergeTenantRowsTest, ZeroCommitsFallBackToPlainMean) {
  CellSpec cell;
  CellResult merged = MergeTenantRows(
      cell, {TenantRow(0, 0, 4, 1), TenantRow(0, 0, 6, 1)});
  EXPECT_TRUE(merged.ok);
  EXPECT_TRUE(std::isfinite(merged.Number("p99_ms")));
  EXPECT_EQ(merged.Text("p99_ms"), "5.00");

  // Nothing ok at all: every column stays finite (zero).
  std::vector<CellResult> failed(2);
  failed[0].error = "a";
  failed[1].error = "b";
  CellResult none = MergeTenantRows(cell, failed);
  EXPECT_EQ(none.error, "tenant 0: a");
  EXPECT_TRUE(std::isfinite(none.Number("p99_ms")));
  EXPECT_EQ(none.Text("p99_ms"), "0.00");
}

/// The tentpole contract: one multi-tenant row merges to byte-identical
/// output, and every per-tenant artifact matches, at any worker count the
/// tenant cells are sharded over (including an uneven 4-over-3 split).
TEST(ShardedCellTest, ByteIdenticalAcrossShardCounts) {
  CellSpec cell;
  cell.sut = sut::SutKind::kCdb3;
  cell.scale_factor = 1;
  cell.concurrency = 10;
  cell.pattern = "RW";
  cell.seed = 42;
  cell.warmup = sim::Millis(500);
  cell.measure = sim::Seconds(1);
  std::vector<CellSpec> tenants;
  for (int i = 0; i < 4; ++i) tenants.push_back(TenantSpec(cell, i));

  auto path = [](const std::string& tag, const std::string& suffix) {
    return testing::TempDir() + "/tenant_" + tag + suffix;
  };
  auto sweep = [&](int jobs, const std::string& tag) {
    RunnerOptions options;
    options.jobs = jobs;
    options.print_summary = false;
    options.jsonl_path = path(tag, ".jsonl");
    options.timeline_jsonl_template = path(tag, "_{index}_tl.jsonl");
    options.metrics_template = path(tag, "_{index}_m.jsonl");
    std::vector<CellResult> rows =
        MatrixRunner(options).Run(tenants, RunOltpCell);
    for (const CellResult& r : rows) EXPECT_TRUE(r.ok) << r.error;
    return MergeTenantRows(cell, rows);
  };

  CellResult one = sweep(1, "j1");
  CellResult two = sweep(2, "j2");
  CellResult three = sweep(3, "j3");  // uneven: 4 tenants on 3 workers

  EXPECT_EQ(ToJsonLine(one), ToJsonLine(two));
  EXPECT_EQ(ToJsonLine(one), ToJsonLine(three));
  EXPECT_EQ(one.id, "CDB3/sf1/RW/con10/seed42/t4");
  std::string rows = ReadFile(path("j1", ".jsonl"));
  EXPECT_EQ(std::count(rows.begin(), rows.end(), '\n'), 4);
  EXPECT_EQ(rows, ReadFile(path("j2", ".jsonl")));
  EXPECT_EQ(rows, ReadFile(path("j3", ".jsonl")));

  // Merge sanity: extensive columns sum across the per-tenant columns.
  double tenant_sum = 0;
  for (int i = 0; i < 4; ++i) {
    tenant_sum += one.Number("t" + std::to_string(i) + "_tps");
  }
  EXPECT_NEAR(one.Number("tps"), tenant_sum, 1e-6);
  EXPECT_GT(one.Number("commits"), 0);

  // Every per-tenant timeline and metrics snapshot, one file per tenant
  // cell from the runner's templates, matches byte for byte too.
  for (int i = 0; i < 4; ++i) {
    for (const char* kind : {"_tl.jsonl", "_m.jsonl"}) {
      std::string suffix = "_" + std::to_string(i) + kind;
      std::string artifact = ReadFile(path("j1", suffix));
      EXPECT_FALSE(artifact.empty()) << suffix;
      EXPECT_EQ(artifact, ReadFile(path("j2", suffix))) << suffix;
      EXPECT_EQ(artifact, ReadFile(path("j3", suffix))) << suffix;
    }
  }
}

/// Each tenant cell must be *the same simulation* as a standalone cell
/// with the tenant's spec: running beside other tenants changes
/// scheduling, never results.
TEST(ShardedCellTest, TenantsMatchStandaloneSingleTenantCells) {
  CellSpec cell;
  cell.sut = sut::SutKind::kAwsRds;
  cell.scale_factor = 1;
  cell.concurrency = 10;
  cell.seed = 7;
  cell.warmup = sim::Millis(500);
  cell.measure = sim::Seconds(1);
  std::vector<CellSpec> tenants = {TenantSpec(cell, 0), TenantSpec(cell, 1)};

  RunnerOptions options;
  options.jobs = 2;
  options.print_summary = false;
  CellResult merged = MergeTenantRows(
      cell, MatrixRunner(options).Run(tenants, RunOltpCell));
  ASSERT_TRUE(merged.ok) << merged.error;

  options.jobs = 1;
  double tps_sum = 0, commits_sum = 0;
  for (int i = 0; i < 2; ++i) {
    CellResult standalone =
        MatrixRunner(options).Run({tenants[static_cast<size_t>(i)]},
                                  RunOltpCell)[0];
    ASSERT_TRUE(standalone.ok) << standalone.error;
    EXPECT_EQ(merged.Text("t" + std::to_string(i) + "_tps"),
              standalone.Text("tps"));
    tps_sum += standalone.Number("tps");
    commits_sum += standalone.Number("commits");
  }
  EXPECT_NEAR(merged.Number("tps"), tps_sum, 1e-6);
  EXPECT_NEAR(merged.Number("commits"), commits_sum, 1e-6);
}

// ---- Section cells (runner/section_cells.h) -------------------------------
//
// Each shared section cell must report exactly what a direct evaluator run
// on a CellDeployment of the same spec measures: the section benches and
// Table IX fold these raw values, so the cell may add columns but never
// change a number.

/// Runs one cell on a one-worker runner (fresh thread-local state).
CellResult RunCell(const CellSpec& spec, const CellFn& fn) {
  RunnerOptions options;
  options.jobs = 1;
  options.print_summary = false;
  CellResult result = MatrixRunner(options).Run({spec}, fn)[0];
  EXPECT_TRUE(result.ok) << result.error;
  return result;
}

TEST(SectionCellTest, FailoverCellMatchesEvaluatorAndReportsServiceLost) {
  for (const char* node : {"RW", "RO"}) {
    SCOPED_TRACE(node);
    CellSpec spec;
    spec.sut = sut::SutKind::kCdb4;
    spec.n_ro = 1;
    spec.concurrency = 20;
    spec.pattern = node;
    spec.warmup = sim::Millis(500);
    spec.measure = sim::Millis(1500);
    CellResult cell = RunCell(spec, [](const CellContext& ctx) {
      return RunFailoverCell(ctx, SalesConfigFor(ctx.spec),
                             /*sticky_ro=*/true, /*target_tps=*/-1);
    });

    bool fail_rw = spec.pattern == "RW";
    SalesWorkloadConfig cfg = SalesConfigFor(spec);
    cfg.route_reads_to_replicas = !fail_rw;
    cfg.sticky_replica = !fail_rw;
    SalesTransactionSet txns(cfg);
    CellDeployment rig(spec, txns.Schemas());
    FailoverEvaluator::Options options;
    options.concurrency = spec.concurrency;
    options.warmup = spec.warmup;
    options.fail_rw = fail_rw;
    options.max_observation = spec.measure;
    FailoverResult r =
        FailoverEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);

    ASSERT_TRUE(r.service_lost);
    EXPECT_EQ(cell.Number("service_lost", -1), 1.0);
    EXPECT_EQ(cell.Number("f_s", -1), r.f_seconds);
    EXPECT_EQ(cell.Number("r_s", -1), r.r_seconds);
    EXPECT_EQ(cell.Number("pre_failure_tps", -1), r.pre_failure_tps);
    EXPECT_EQ(cell.Number("target_tps", -1), r.target_tps);
  }
}

TEST(SectionCellTest, LagCellMatchesEvaluator) {
  CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.n_ro = 1;
  spec.concurrency = 10;
  spec.warmup = sim::Millis(500);
  spec.measure = sim::Millis(500);
  CellResult cell = RunCell(spec, [](const CellContext& ctx) {
    return RunLagCell(ctx, 60, 30, 10);
  });

  CellDeployment rig(spec, sales::Schemas());
  LagTimeEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  options.seed = spec.seed;
  LagTimeResult r = LagTimeEvaluator::Run(&rig.env, rig.cluster.get(), options);

  EXPECT_GT(r.c_score, 0);
  EXPECT_EQ(cell.Number("insert_lag_ms", -1), r.insert_lag_ms);
  EXPECT_EQ(cell.Number("update_lag_ms", -1), r.update_lag_ms);
  EXPECT_EQ(cell.Number("delete_lag_ms", -1), r.delete_lag_ms);
  EXPECT_EQ(cell.Number("c_score", -1), r.c_score);
}

TEST(SectionCellTest, ElasticityCellMatchesEvaluatorAndReportsE1Star) {
  CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.concurrency = 20;
  spec.serverless = true;
  spec.freeze_at_max = false;
  spec.time_scale = 0.01;  // 0.6 s slots
  CellResult cell = RunCell(spec, [](const CellContext& ctx) {
    return RunElasticityCell(ctx, SalesConfigFor(ctx.spec),
                             ElasticitySchedule(ElasticityPattern::kLargeSpike,
                                                ctx.spec.concurrency),
                             sim::Seconds(60 * ctx.spec.time_scale));
  });

  SalesTransactionSet txns(SalesConfigFor(spec));
  CellDeployment rig(spec, txns.Schemas());
  ElasticityEvaluator::Options options;
  options.tau = spec.concurrency;
  options.slot = sim::Seconds(60 * spec.time_scale);
  ElasticityResult r = ElasticityEvaluator::Run(
      &rig.env, rig.cluster.get(), &txns, ElasticityPattern::kLargeSpike,
      options);
  cloud::CostBreakdown actual = rig.cluster->meter().ActualCost(
      rig.cluster->config().actual_pricing, r.window_start_s, r.window_end_s);

  EXPECT_GT(r.mean_tps, 0);
  EXPECT_EQ(cell.Number("tps", -1), r.mean_tps);
  EXPECT_EQ(cell.Number("total_cost", -1), r.total_cost.total());
  EXPECT_EQ(cell.Number("e1_score", -1), r.e1_score);
  EXPECT_EQ(cell.Number("scaling_events", -1),
            static_cast<double>(r.scaling_events.size()));
  EXPECT_EQ(cell.Number("e1_star", -1),
            metrics::E1Score(r.mean_tps, actual.PerMinute(r.window_end_s -
                                                          r.window_start_s)));
}

TEST(SectionCellTest, TenancyCellMatchesEvaluatorAndReportsTStar) {
  CellSpec spec;
  spec.sut = sut::SutKind::kCdb2;  // the elastic pool: T* bills its minimum
  spec.concurrency = 20;
  spec.pattern = "Staggered High";
  spec.time_scale = 0.01;  // 0.6 s slots
  CellResult cell = RunCell(spec, [](const CellContext& ctx) {
    return RunTenancyCell(ctx, TenancyPattern::kStaggeredHigh, 3, kTenancySlots,
                          sim::Seconds(60 * ctx.spec.time_scale));
  });

  sim::Environment env;
  MultiTenantDeployment deployment(&env, spec.sut, 3, spec.scale_factor,
                                   spec.time_scale);
  MultiTenancyEvaluator::Options options;
  options.slots = kTenancySlots;
  options.slot = sim::Seconds(60 * spec.time_scale);
  options.tau = spec.concurrency;
  TenancyResult r = MultiTenancyEvaluator::Run(
      &env, &deployment, TenancyPattern::kStaggeredHigh, options);

  EXPECT_GT(r.total_tps, 0);
  EXPECT_EQ(cell.Number("tps", -1), r.total_tps);
  EXPECT_EQ(cell.Number("t_score", -1), r.t_score);
  EXPECT_EQ(cell.Number("cost_per_min", -1), r.cost_per_minute.total());
  // T* prices the pool's one-hour minimum, so it sits below T.
  EXPECT_GT(cell.Number("t_star", -1), 0);
  EXPECT_LT(cell.Number("t_star", -1), r.t_score);
}

}  // namespace
}  // namespace cloudybench::runner

int main(int argc, char** argv) {
  cloudybench::util::SetLogLevel(cloudybench::util::LogLevel::kWarning);
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

// Tests for the CloudyBench core layer: patterns, the PERFECT metric
// formulas, the performance collector, and the sales workload semantics.

#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "cloud/cluster.h"
#include <fstream>

#include "core/baselines.h"
#include "core/evaluators.h"
#include "core/microservices.h"
#include "core/report.h"
#include "runner/testbed.h"
#include "core/collector.h"
#include "core/metrics.h"
#include "core/patterns.h"
#include "core/sales_workload.h"
#include "core/workload_manager.h"
#include "sim/environment.h"
#include "sut/profiles.h"

namespace cloudybench {
namespace {

using util::Status;

// ---------------------------------------------------------------- Patterns

TEST(PatternsTest, ElasticitySchedulesMatchPaperProportions) {
  // §II-C with tau = 110: (0,110,0), (11,88,11), (44,22,44), (55,0,55).
  EXPECT_EQ(ElasticitySchedule(ElasticityPattern::kSinglePeak, 110),
            (std::vector<int>{0, 110, 0}));
  EXPECT_EQ(ElasticitySchedule(ElasticityPattern::kLargeSpike, 110),
            (std::vector<int>{11, 88, 11}));
  EXPECT_EQ(ElasticitySchedule(ElasticityPattern::kSingleValley, 110),
            (std::vector<int>{44, 22, 44}));
  EXPECT_EQ(ElasticitySchedule(ElasticityPattern::kZeroValley, 110),
            (std::vector<int>{55, 0, 55}));
}

TEST(PatternsTest, ParetoScheduleIsBoundedAndDeterministic) {
  util::Pcg32 rng1(5), rng2(5);
  std::vector<int> a = ParetoElasticitySchedule(100, 12, rng1);
  std::vector<int> b = ParetoElasticitySchedule(100, 12, rng2);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 12u);
  for (int c : a) {
    EXPECT_GE(c, 0);
    EXPECT_LE(c, 100);
  }
}

TEST(PatternsTest, TenancyContentionPatternsSumCorrectly) {
  int tau = 330;
  auto high = TenancySchedule(TenancyPattern::kHighContention, 3, 3, tau);
  auto low = TenancySchedule(TenancyPattern::kLowContention, 3, 3, tau);
  for (int slot = 0; slot < 3; ++slot) {
    int high_total = 0, low_total = 0;
    for (int t = 0; t < 3; ++t) {
      high_total += high[static_cast<size_t>(t)][static_cast<size_t>(slot)];
      low_total += low[static_cast<size_t>(t)][static_cast<size_t>(slot)];
    }
    EXPECT_GT(high_total, tau);  // contention: above the threshold
    EXPECT_LT(low_total, tau);   // below the threshold
  }
  // Constant across slots.
  EXPECT_EQ(high[0][0], high[0][2]);
}

TEST(PatternsTest, StaggeredPatternsAreOneHotPerSlot) {
  for (TenancyPattern p :
       {TenancyPattern::kStaggeredHigh, TenancyPattern::kStaggeredLow}) {
    auto schedule = TenancySchedule(p, 3, 3, 100);
    for (int slot = 0; slot < 3; ++slot) {
      int active = 0;
      for (int t = 0; t < 3; ++t) {
        if (schedule[static_cast<size_t>(t)][static_cast<size_t>(slot)] > 0) {
          ++active;
          EXPECT_EQ(t, slot % 3);  // tenant t active exactly in its slot
        }
      }
      EXPECT_EQ(active, 1);
    }
  }
  // Paper pattern (d) with tau=100: {(10,0,0),(0,20,0),(0,0,30)}.
  auto d = TenancySchedule(TenancyPattern::kStaggeredLow, 3, 3, 100);
  EXPECT_EQ(d[0][0], 10);
  EXPECT_EQ(d[1][1], 20);
  EXPECT_EQ(d[2][2], 30);
}

TEST(PatternsTest, ArbitraryTenantAndSlotCounts) {
  // §II-D: "CloudyBench supports arbitrary numbers of tenants and time
  // slots, and the generation method remains the same."
  auto schedule = TenancySchedule(TenancyPattern::kStaggeredHigh, 5, 7, 200);
  EXPECT_EQ(schedule.size(), 5u);
  EXPECT_EQ(schedule[0].size(), 7u);
  // Slot 5 -> tenant 0 again (cycling).
  EXPECT_GT(schedule[0][5], 0);
}

// ----------------------------------------------------------------- Metrics

TEST(MetricsTest, PScoreMatchesEquationOne) {
  cloud::CostBreakdown cost{0.0123, 0.0025, 0.0006, 0.000025, 0.0128};
  // P = TPS / total cost; with RDS-like RW numbers.
  EXPECT_NEAR(metrics::PScore(12382, cost), 12382 / cost.total(), 1e-9);
}

TEST(MetricsTest, E1UsesOnlyCpuMemIops) {
  cloud::CostBreakdown cost{0.01, 0.002, 100.0, 0.001, 100.0};
  EXPECT_NEAR(metrics::E1Score(1300, cost), 1300 / 0.013, 1e-9);
}

TEST(MetricsTest, FAndRAverageRecoveryPhases) {
  EXPECT_DOUBLE_EQ(metrics::FScore({24, 6}), 15.0);
  EXPECT_DOUBLE_EQ(metrics::RScore({18, 30}), 24.0);
  EXPECT_DOUBLE_EQ(metrics::FScore({}), 0.0);
}

TEST(MetricsTest, E2AveragesPerNodeGain) {
  // 17003 -> 36198 with one added node (paper's RDS example): E2 = gain.
  EXPECT_NEAR(metrics::E2Score({17003, 36198}), 19195, 1e-9);
  // Two steps of +1000 TPS per 1 node.
  EXPECT_NEAR(metrics::E2Score({1000, 2000, 3000}), 1000, 1e-9);
  // delta scaling factor halves the per-node gain.
  EXPECT_NEAR(metrics::E2Score({1000, 3000}, 2.0), 1000, 1e-9);
}

TEST(MetricsTest, CScoreSumsLagsOverReplicas) {
  EXPECT_DOUBLE_EQ(metrics::CScore(3, 6, 9, 1), 18.0);
  EXPECT_DOUBLE_EQ(metrics::CScore(3, 6, 9, 3), 6.0);
}

TEST(MetricsTest, TScoreIsGeomeanOverCost) {
  // geomean(1000, 1000, 8000) = 2000.
  EXPECT_NEAR(metrics::TScore({1000, 1000, 8000}, 0.05), 2000 / 0.05, 1e-6);
  // One starved tenant collapses the geomean — the formula punishes
  // unfair scheduling.
  EXPECT_LT(metrics::TScore({3000, 3000, 1}, 0.05),
            metrics::TScore({2000, 2000, 2000}, 0.05));
}

TEST(MetricsTest, OScoreMatchesEquationEight) {
  double p = 1e5, t = 8e4, e1 = 6e4, e2 = 20, r = 24, f = 15, c = 14;
  double expected = std::log10(p * t * e1 * e2 / (r * f * c));
  EXPECT_NEAR(metrics::OScore(p, t, e1, e2, r, f, c), expected, 1e-12);
  EXPECT_NEAR(metrics::OScore(p, t, e1, e2, r, f, c, 10), 10 * expected,
              1e-9);
  metrics::Perfect perfect{p, e1, e2, r, f, c, t, 0};
  perfect.FinalizeOScore();
  EXPECT_NEAR(perfect.o, expected, 1e-12);
}

TEST(MetricsTest, BetterComponentsRaiseOScore) {
  double base = metrics::OScore(1e5, 8e4, 6e4, 20, 24, 15, 14);
  EXPECT_GT(metrics::OScore(2e5, 8e4, 6e4, 20, 24, 15, 14), base);  // P up
  EXPECT_GT(metrics::OScore(1e5, 8e4, 6e4, 20, 12, 15, 14), base);  // R down
  EXPECT_GT(metrics::OScore(1e5, 8e4, 6e4, 20, 24, 15, 7), base);   // C down
}

// --------------------------------------------------------------- Collector

TEST(CollectorTest, TpsSeriesTracksCommitRate) {
  sim::Environment env;
  PerformanceCollector collector(&env, sim::Millis(500));
  collector.Start();
  // 100 commits/second for 4 seconds.
  env.Spawn([](sim::Environment* e, PerformanceCollector* c) -> sim::Process {
    for (int i = 0; i < 400; ++i) {
      co_await e->Delay(sim::Millis(10));
      c->RecordCommit(TxnType::kOrderStatus, 1.0);
    }
  }(&env, &collector));
  env.RunUntil(sim::Seconds(5));
  EXPECT_EQ(collector.commits(), 400);
  EXPECT_NEAR(collector.MeanTps(0.5, 4.0), 100.0, 2.0);
  // A sample at time t covers commits in (t-0.5, t]; the last commit lands
  // at exactly 4.0, so windows strictly after the 4.5 sample are idle.
  EXPECT_NEAR(collector.MeanTps(4.51, 5.01), 0.0, 1e-9);
  EXPECT_EQ(collector.commits_of(TxnType::kOrderStatus), 400);
}

TEST(CollectorTest, LatencyPerType) {
  sim::Environment env;
  PerformanceCollector collector(&env);
  collector.RecordCommit(TxnType::kOrderPayment, 5.0);
  collector.RecordCommit(TxnType::kOrderStatus, 1.0);
  collector.RecordAbort(TxnType::kOrderPayment);
  EXPECT_EQ(collector.aborts(), 1);
  EXPECT_NEAR(collector.latency(TxnType::kOrderPayment).mean(), 5000, 300);
  EXPECT_NEAR(collector.latency_all().mean(), 3000, 300);
}

TEST(CollectorTest, TxnTypeNames) {
  EXPECT_STREQ(TxnTypeName(TxnType::kNewOrderline), "T1-NewOrderline");
  EXPECT_STREQ(TxnTypeName(TxnType::kOrderlineDeletion),
               "T4-OrderlineDeletion");
}

// ------------------------------------------------------------- Sales schema

TEST(SalesSchemaTest, SizesMatchPaperScalingModel) {
  std::vector<storage::TableSchema> schemas = sales::Schemas();
  ASSERT_EQ(schemas.size(), 3u);
  // ORDERLINE is an order of magnitude larger (paper §II-A).
  EXPECT_EQ(schemas[2].base_rows_per_sf, 10 * schemas[1].base_rows_per_sf);
  // SF1 raw footprint ~194 MB, the paper's dataset size.
  int64_t bytes = 0;
  for (const auto& s : schemas) bytes += s.base_rows_per_sf * s.row_bytes;
  EXPECT_NEAR(static_cast<double>(bytes) / (1024 * 1024), 194, 15);
}

TEST(SalesSchemaTest, GeneratorsAreDeterministic) {
  std::vector<storage::TableSchema> schemas = sales::Schemas();
  storage::Row a = schemas[1].generator(12345);
  storage::Row b = schemas[1].generator(12345);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.ref_a, 12345 % sales::kCustomersPerSf);
  EXPECT_EQ(a.status, sales::kStatusNew);
}

TEST(SalesWorkloadConfigTest, PresetsMatchPaperRatios) {
  EXPECT_EQ(SalesWorkloadConfig::ReadOnly().ratios,
            (std::array<int, 4>{0, 0, 100, 0}));
  EXPECT_EQ(SalesWorkloadConfig::ReadWrite().ratios,
            (std::array<int, 4>{15, 5, 80, 0}));
  EXPECT_EQ(SalesWorkloadConfig::WriteOnly().ratios,
            (std::array<int, 4>{100, 0, 0, 0}));
  EXPECT_EQ(SalesWorkloadConfig::IudMix(60, 30, 10).ratios,
            (std::array<int, 4>{60, 30, 0, 10}));
}

// ------------------------------------------------- workload end-to-end

struct WorkloadRig {
  explicit WorkloadRig(SalesWorkloadConfig cfg, sut::SutKind kind = sut::SutKind::kCdb4)
      : txns(cfg), collector(&env) {
    cloud::ClusterConfig cluster_cfg = sut::MakeProfile(kind);
    sut::FreezeAtMaxCapacity(&cluster_cfg);
    cluster = std::make_unique<cloud::Cluster>(&env, cluster_cfg, 1);
    cluster->Load(txns.Schemas(), 1);
    collector.Start();
    manager = std::make_unique<WorkloadManager>(&env, cluster.get(), &txns,
                                                &collector);
  }
  sim::Environment env;
  SalesTransactionSet txns;
  PerformanceCollector collector;
  std::unique_ptr<cloud::Cluster> cluster;
  std::unique_ptr<WorkloadManager> manager;
};

TEST(SalesWorkloadTest, T2MarksOrdersPaidAndCreditsCustomers) {
  SalesWorkloadConfig cfg;
  cfg.ratios = {0, 100, 0, 0};  // T2 only
  WorkloadRig rig(cfg);
  rig.manager->SetConcurrency(8);
  rig.env.RunUntil(sim::Seconds(2));
  rig.manager->StopAll();
  rig.env.RunUntil(sim::Seconds(3));
  ASSERT_GT(rig.collector.commits(), 100);
  EXPECT_EQ(rig.collector.commits_of(TxnType::kOrderPayment),
            rig.collector.commits());
  // Spot-check durable effects: some order is PAID and its customer
  // credit rose above the base 1000.
  storage::SyntheticTable* orders =
      rig.cluster->canonical()->Find(sales::kOrdersTable);
  storage::SyntheticTable* customer =
      rig.cluster->canonical()->Find(sales::kCustomerTable);
  EXPECT_GT(orders->overlay_rows(), 0u);
  bool found_paid = false, found_credit = false;
  for (int64_t key = 0; key < orders->base_count() && !(found_paid && found_credit);
       ++key) {
    if (orders->Get(key)->status == sales::kStatusPaid) {
      found_paid = true;
      if (customer->Get(orders->Get(key)->ref_a)->amount > 1000.0) {
        found_credit = true;
      }
    }
  }
  EXPECT_TRUE(found_paid);
  EXPECT_TRUE(found_credit);
}

TEST(SalesWorkloadTest, T1InsertsAndT4DeletesBalance) {
  SalesWorkloadConfig cfg;
  cfg.ratios = {50, 0, 0, 50};
  WorkloadRig rig(cfg);
  storage::SyntheticTable* orderline =
      rig.cluster->canonical()->Find(sales::kOrderlineTable);
  int64_t base = orderline->live_rows();
  rig.manager->SetConcurrency(8);
  rig.env.RunUntil(sim::Seconds(2));
  rig.manager->StopAll();
  rig.env.RunUntil(sim::Seconds(3));
  int64_t inserts = rig.collector.commits_of(TxnType::kNewOrderline);
  int64_t deletes = rig.collector.commits_of(TxnType::kOrderlineDeletion);
  ASSERT_GT(inserts, 50);
  ASSERT_GT(deletes, 50);
  // Deletions target T1's inserts first; live rows moved by the diff of
  // successful inserts and deletes of *existing* rows (no-op deletes of
  // missing base rows cannot over-shrink the table).
  EXPECT_LE(orderline->live_rows(), base + inserts);
  EXPECT_GE(orderline->live_rows(), base - deletes);
}

TEST(SalesWorkloadTest, LatestDistributionTouchesRecentOrders) {
  SalesWorkloadConfig cfg;
  cfg.ratios = {0, 100, 0, 0};
  cfg.distribution = AccessDistribution::kLatest;
  cfg.latest_k = 10;
  WorkloadRig rig(cfg);
  rig.manager->SetConcurrency(4);
  rig.env.RunUntil(sim::Seconds(1));
  rig.manager->StopAll();
  rig.env.RunUntil(sim::Seconds(2));
  ASSERT_GT(rig.collector.commits(), 10);
  // All updated orders fall in the latest-10 window at the top of the id
  // space.
  storage::SyntheticTable* orders =
      rig.cluster->canonical()->Find(sales::kOrdersTable);
  EXPECT_LE(orders->overlay_rows(), 10u + 10u);  // orders + tombstone slack
  for (int64_t key = 0; key < orders->base_count() - 10; ++key) {
    // Sampling every row is slow; check boundaries instead.
    break;
  }
  int64_t max_key = orders->max_key();
  int64_t hot = 0;
  for (int64_t key = max_key - 9; key <= max_key; ++key) {
    if (orders->Get(key)->status == sales::kStatusPaid) ++hot;
  }
  EXPECT_GT(hot, 0);
}

TEST(SalesWorkloadTest, HigherConcurrencyRaisesThroughputUntilSaturation) {
  auto tps_at = [](int concurrency) {
    SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
    WorkloadRig rig(cfg);
    rig.manager->SetConcurrency(concurrency);
    rig.env.RunUntil(sim::Seconds(3));
    double tps = rig.collector.MeanTps(1.0, 3.0);
    rig.manager->StopAll();
    return tps;
  };
  double at4 = tps_at(4);
  double at32 = tps_at(32);
  EXPECT_GT(at32, at4 * 2);
}

TEST(WorkloadManagerTest, ConcurrencyChangesTakeEffect) {
  SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadOnly();
  WorkloadRig rig(cfg);
  rig.manager->SetConcurrency(10);
  rig.env.RunUntil(sim::Seconds(1));
  EXPECT_EQ(rig.manager->concurrency(), 10);
  double busy_tps = rig.collector.MeanTps(0.5, 1.0);
  rig.manager->SetConcurrency(0);
  rig.env.RunUntil(sim::Seconds(2));
  EXPECT_EQ(rig.manager->concurrency(), 0);
  EXPECT_NEAR(rig.collector.MeanTps(1.51, 2.01), 0.0, 1.0);
  rig.manager->SetConcurrency(5);
  rig.env.RunUntil(sim::Seconds(3));
  double resumed_tps = rig.collector.MeanTps(2.5, 3.0);
  EXPECT_GT(resumed_tps, busy_tps * 0.2);
}

// -------------------------------------------------------------- Baselines

TEST(BaselinesTest, SysbenchLiteRunsOnSubstrate) {
  sim::Environment env;
  SysbenchLiteWorkload workload;
  cloud::ClusterConfig cfg = sut::MakeProfile(sut::SutKind::kCdb3);
  sut::FreezeAtMaxCapacity(&cfg);
  cloud::Cluster cluster(&env, cfg, 0);
  cluster.Load(workload.Schemas(), 1);
  EXPECT_NE(cluster.canonical()->Find("sbtest1"), nullptr);
  EXPECT_NE(cluster.canonical()->Find("sbtest3"), nullptr);
  PerformanceCollector collector(&env);
  collector.Start();
  WorkloadManager manager(&env, &cluster, &workload, &collector);
  manager.SetConcurrency(8);
  env.RunUntil(sim::Seconds(2));
  manager.StopAll();
  env.RunUntil(sim::Seconds(3));
  EXPECT_GT(collector.commits(), 100);
  EXPECT_EQ(collector.commits_of(TxnType::kOther), collector.commits());
}

TEST(BaselinesTest, TpccLiteRunsAndAdvancesDistrictOrderIds) {
  sim::Environment env;
  TpccLiteWorkload workload;
  cloud::ClusterConfig cfg = sut::MakeProfile(sut::SutKind::kCdb3);
  sut::FreezeAtMaxCapacity(&cfg);
  cloud::Cluster cluster(&env, cfg, 0);
  cluster.Load(workload.Schemas(), 1);
  PerformanceCollector collector(&env);
  collector.Start();
  WorkloadManager manager(&env, &cluster, &workload, &collector);
  manager.SetConcurrency(8);
  env.RunUntil(sim::Seconds(2));
  manager.StopAll();
  env.RunUntil(sim::Seconds(3));
  EXPECT_GT(collector.commits(), 50);
  // NewOrder advanced some district's D_NEXT_O_ID beyond the initial 3001.
  storage::SyntheticTable* district = cluster.canonical()->Find("district");
  bool advanced = false;
  for (int64_t d = 0; d < district->base_count(); ++d) {
    if (district->Get(d)->ref_b > 3001) advanced = true;
  }
  EXPECT_TRUE(advanced);
  // Orders were inserted.
  storage::SyntheticTable* orders = cluster.canonical()->Find("tpcc_orders");
  EXPECT_GT(orders->live_rows(), orders->base_count());
}

}  // namespace
}  // namespace cloudybench

namespace cloudybench {
namespace {

// ------------------------------------------------------------ ReportWriter

TEST(ReportWriterTest, RendersAndWritesCsv) {
  std::string dir = ::testing::TempDir() + "cb_report";
  ASSERT_EQ(0, system(("mkdir -p " + dir).c_str()));
  ReportWriter report(dir);
  EXPECT_TRUE(report.csv_enabled());

  OltpResult oltp;
  oltp.mean_tps = 12345;
  oltp.p50_latency_ms = 2.5;
  oltp.p99_latency_ms = 9.0;
  oltp.commits = 1000;
  oltp.cost_per_minute = cloud::CostBreakdown{0.01, 0.002, 0, 0, 0.012};
  oltp.p_score = 500000;
  report.AddOltp("CDB4/rw", oltp);

  LagTimeResult lag;
  lag.insert_lag_ms = 1.5;
  lag.c_score = 4.5;
  report.AddLag("CDB4", lag);

  ASSERT_TRUE(report.WriteCsvFiles().ok());
  std::ifstream oltp_csv(dir + "/oltp.csv");
  ASSERT_TRUE(oltp_csv.good());
  std::string header, row;
  std::getline(oltp_csv, header);
  std::getline(oltp_csv, row);
  EXPECT_NE(header.find("p_score"), std::string::npos);
  EXPECT_NE(row.find("CDB4/rw"), std::string::npos);
  EXPECT_NE(row.find("12345"), std::string::npos);
  // Sections without rows are not written.
  std::ifstream failover_csv(dir + "/failover.csv");
  EXPECT_FALSE(failover_csv.good());
}

TEST(ReportWriterTest, DisabledCsvIsNoOp) {
  ReportWriter report;
  EXPECT_FALSE(report.csv_enabled());
  EXPECT_TRUE(report.WriteCsvFiles().ok());
}

TEST(TestbedTest2, WritesCsvWhenConfigured) {
  std::string dir = ::testing::TempDir() + "cb_testbed_csv";
  ASSERT_EQ(0, system(("mkdir -p " + dir).c_str()));
  util::Properties props;
  ASSERT_TRUE(props.ParseString(R"(
      sut = cdb4
      [oltp]
      enable = true
      concurrency = 10
      seconds = 1
  )").ok());
  props.Set("output.csv_dir", dir);
  runner::Testbed testbed(std::move(props));
  ASSERT_TRUE(testbed.RunAll().ok());
  std::ifstream csv(dir + "/oltp.csv");
  EXPECT_TRUE(csv.good());
}

}  // namespace
}  // namespace cloudybench

namespace cloudybench {
namespace {

TEST(WorkloadManagerTest, DrainCompletesInFlightTransactions) {
  SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
  WorkloadRig rig(cfg);
  rig.manager->SetConcurrency(20);
  rig.env.RunUntil(sim::Seconds(1));
  rig.manager->StopAll();
  // After a generous drain no transaction is left open on any node.
  rig.env.RunUntil(sim::Seconds(3));
  EXPECT_EQ(rig.manager->concurrency(), 0);
  EXPECT_EQ(rig.cluster->rw()->txn().active_txns(), 0);
  for (size_t i = 0; i < rig.cluster->ro_count(); ++i) {
    EXPECT_EQ(rig.cluster->ro(i)->txn().active_txns(), 0);
  }
}

TEST(ErpIntegrationTest, ElasticityEvaluatorRunsOnErpWorkload) {
  // Every evaluator accepts any TransactionSet — exercise the ERP
  // extension through the elasticity evaluator end to end.
  ErpWorkloadConfig cfg;
  ErpTransactionSet txns(cfg);
  sim::Environment env;
  cloud::ClusterConfig cluster_cfg = sut::MakeProfile(sut::SutKind::kCdb3, 0.1);
  cluster_cfg.node.memory_follows_vcores = true;
  cluster_cfg.node.vcores = cluster_cfg.autoscaler.min_vcores;
  cloud::Cluster cluster(&env, cluster_cfg, 0);
  cluster.Load(txns.Schemas(), 1);
  ElasticityEvaluator::Options options;
  options.tau = 60;
  options.slot = sim::Seconds(4);
  ElasticityResult r = ElasticityEvaluator::Run(
      &env, &cluster, &txns, ElasticityPattern::kLargeSpike, options);
  EXPECT_GT(r.mean_tps, 500);
  EXPECT_GT(r.e1_score, 0);
  EXPECT_FALSE(r.scaling_events.empty());
}

TEST(PropertiesFileTest, ParseFileRoundTrip) {
  std::string path = ::testing::TempDir() + "cb_props_test.props";
  {
    std::ofstream out(path);
    out << "sut = cdb3\n[oltp]\nconcurrency = 77\n";
  }
  util::Properties props;
  ASSERT_TRUE(props.ParseFile(path).ok());
  EXPECT_EQ(props.GetString("sut", ""), "cdb3");
  EXPECT_EQ(props.GetInt("oltp.concurrency", 0), 77);
  util::Properties missing;
  EXPECT_TRUE(missing.ParseFile("/nonexistent/file.props").IsNotFound());
}

}  // namespace
}  // namespace cloudybench

namespace cloudybench {
namespace {

// ------------------------------------------- WorkloadManager seed streams

TEST(WorkloadManagerSeedTest, WorkerSeedStreamsDisjointAcrossNearbyRoots) {
  // Regression: worker seeds used to be root + index, so the multitenancy
  // sweep's manager roots (50, 147, 244 — 97 apart, concurrency > 97)
  // silently shared worker RNG streams. Stream-split derivation keeps the
  // full per-manager index ranges disjoint.
  std::set<uint64_t> a;
  std::set<uint64_t> b;
  for (uint64_t i = 0; i < 512; ++i) {
    a.insert(WorkloadManager::WorkerSeed(50, i));
    b.insert(WorkloadManager::WorkerSeed(147, i));
  }
  EXPECT_EQ(a.size(), 512u);
  EXPECT_EQ(b.size(), 512u);
  for (uint64_t seed : b) EXPECT_EQ(a.count(seed), 0u);
}

TEST(WorkloadManagerSeedTest, DefaultSeedDerivesDistinctRootsPerManager) {
  // Two managers driving the *same* TransactionSet (seed 0 = derive) must
  // get different roots — repeated evaluator phases and multi-tenant
  // sweeps construct exactly this shape.
  sim::Environment env;
  cloud::ClusterConfig cfg = sut::MakeProfile(sut::SutKind::kAwsRds);
  cloud::Cluster cluster(&env, cfg, 0);
  SalesWorkloadConfig wcfg;
  wcfg.seed = 42;
  SalesTransactionSet txns(wcfg);
  PerformanceCollector collector(&env);
  WorkloadManager first(&env, &cluster, &txns, &collector);
  WorkloadManager second(&env, &cluster, &txns, &collector);
  EXPECT_NE(first.seed(), 0u);
  EXPECT_NE(first.seed(), second.seed());
  // ...while staying a pure function of the workload seed + construction
  // order: a fresh TransactionSet with the same config derives the same
  // root sequence (the determinism contract).
  SalesTransactionSet txns_replay(wcfg);
  WorkloadManager first_replay(&env, &cluster, &txns_replay, &collector);
  EXPECT_EQ(first.seed(), first_replay.seed());
  // An explicit non-zero seed pins the root directly.
  WorkloadManager pinned(&env, &cluster, &txns, &collector, 1234);
  EXPECT_EQ(pinned.seed(), 1234u);
}

}  // namespace
}  // namespace cloudybench

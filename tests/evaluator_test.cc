// Integration tests for the CloudyBench evaluators: every evaluator runs
// end-to-end against every SUT profile and must produce the paper's
// qualitative behaviours (not just finish).

#include <map>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "core/tenancy.h"
#include "runner/testbed.h"
#include "obs/metric_registry.h"
#include "sim/environment.h"
#include "sut/profiles.h"
#include "util/string_util.h"

namespace cloudybench {
namespace {

using sut::SutKind;

struct Rig {
  Rig(SutKind kind, SalesWorkloadConfig cfg, int n_ro = 1, int64_t sf = 1)
      : txns(cfg) {
    cloud::ClusterConfig cluster_cfg = sut::MakeProfile(kind);
    sut::FreezeAtMaxCapacity(&cluster_cfg);
    cluster = std::make_unique<cloud::Cluster>(&env, cluster_cfg, n_ro);
    cluster->Load(txns.Schemas(), sf);
    cluster->PrewarmBuffers();
  }
  sim::Environment env;
  SalesTransactionSet txns;
  std::unique_ptr<cloud::Cluster> cluster;
};

class PerSutTest : public ::testing::TestWithParam<SutKind> {};

INSTANTIATE_TEST_SUITE_P(AllSuts, PerSutTest,
                         ::testing::ValuesIn(sut::AllSuts()),
                         [](const ::testing::TestParamInfo<SutKind>& info) {
                           std::string name = sut::SutName(info.param);
                           for (char& c : name) {
                             if (c == ' ') c = '_';
                           }
                           return name;
                         });

// ------------------------------------------------------------------ OLTP

TEST_P(PerSutTest, OltpEvaluatorProducesSaneResults) {
  Rig rig(GetParam(), SalesWorkloadConfig::ReadWrite());
  OltpEvaluator::Options options;
  options.concurrency = 60;
  options.warmup = sim::Seconds(1);
  options.measure = sim::Seconds(2);
  OltpResult r = OltpEvaluator::Run(&rig.env, rig.cluster.get(),
                                    &rig.txns, options);
  EXPECT_GT(r.mean_tps, 1000);
  EXPECT_GT(r.commits, 1000);
  EXPECT_GT(r.p50_latency_ms, 0.5);  // at least one client RTT
  EXPECT_GE(r.p99_latency_ms, r.p50_latency_ms);
  EXPECT_GT(r.cost_per_minute.total(), 0);
  EXPECT_GT(r.p_score, 0);
  EXPECT_GT(r.buffer_hit_rate, 0.5);
  EXPECT_GT(r.window_end_s, r.window_start_s);
}

TEST_P(PerSutTest, OltpEvaluatorIsDeterministic) {
  auto run = [&] {
    Rig rig(GetParam(), SalesWorkloadConfig::ReadWrite());
    OltpEvaluator::Options options;
    options.concurrency = 40;
    options.warmup = sim::Seconds(1);
    options.measure = sim::Seconds(1);
    return OltpEvaluator::Run(&rig.env, rig.cluster.get(), &rig.txns, options);
  };
  OltpResult a = run();
  OltpResult b = run();
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_DOUBLE_EQ(a.mean_tps, b.mean_tps);
}

// ------------------------------------------------------------- Elasticity

TEST_P(PerSutTest, ElasticitySlotTpsFollowsSchedule) {
  SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
  Rig rig(GetParam(), cfg, /*n_ro=*/0);
  ElasticityEvaluator::Options options;
  options.tau = 60;
  options.slot = sim::Seconds(4);
  options.cost_window_slots = 4;
  ElasticityResult r = ElasticityEvaluator::Run(
      &rig.env, rig.cluster.get(), &rig.txns,
      ElasticityPattern::kLargeSpike, options);
  ASSERT_EQ(r.slot_tps.size(), 3u);
  // Spike slot (88% tau) far exceeds the shoulders (10% tau).
  EXPECT_GT(r.slot_tps[1], r.slot_tps[0] * 1.5);
  EXPECT_GT(r.slot_tps[1], r.slot_tps[2] * 1.5);
  EXPECT_GT(r.e1_score, 0);
  EXPECT_GT(r.total_cost.total(), 0);
  EXPECT_NEAR(r.pattern_seconds, 12.0, 0.1);
  EXPECT_NEAR(r.cost_window_seconds, 16.0, 0.1);
}

TEST(ElasticityTest, ServerlessScalesFixedDoesNot) {
  auto events_for = [](SutKind kind) {
    SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
    SalesTransactionSet txns(cfg);
    sim::Environment env;
    cloud::ClusterConfig cluster_cfg = sut::MakeProfile(kind, 0.1);
    if (cluster_cfg.autoscaler.policy != cloud::ScalingPolicy::kFixed) {
      cluster_cfg.node.memory_follows_vcores = true;
      cluster_cfg.node.vcores = cluster_cfg.autoscaler.min_vcores;
    }
    cloud::Cluster cluster(&env, cluster_cfg, 0);
    cluster.Load(txns.Schemas(), 1);
    ElasticityEvaluator::Options options;
    options.tau = 80;
    options.slot = sim::Seconds(6);
    ElasticityResult r = ElasticityEvaluator::Run(
        &env, &cluster, &txns, ElasticityPattern::kSinglePeak, options);
    return r.scaling_events.size();
  };
  EXPECT_EQ(events_for(SutKind::kAwsRds), 0u);
  EXPECT_EQ(events_for(SutKind::kCdb4), 0u);
  EXPECT_GT(events_for(SutKind::kCdb2), 0u);
  EXPECT_GT(events_for(SutKind::kCdb3), 0u);
}

TEST(ElasticityTest, ServerlessNodeStartsAtFloorMemory) {
  // A serverless node starts at the autoscaler's vCore floor with memory
  // (and so buffer) sized for it, not at the provisioned profile's memory.
  cloud::ClusterConfig cfg = sut::MakeProfile(SutKind::kCdb3, 0.1);
  double profile_memory_gb = cfg.node.memory_gb;
  sut::EnableServerless(&cfg);
  sim::Environment env;
  cloud::Cluster cluster(&env, cfg, 0);
  cluster.Load(sales::Schemas(), 1);
  double floor_gb = cfg.autoscaler.min_vcores * cfg.node.memory_gb_per_vcore;
  EXPECT_DOUBLE_EQ(cluster.rw()->allocated_memory_gb(), floor_gb);
  EXPECT_LT(floor_gb, profile_memory_gb);
}

TEST(ElasticityTest, Cdb1ServerlessLosesThroughputToScalingStalls) {
  // The paper measures a large serverless-vs-fixed throughput loss for
  // CDB1; our mechanism is the connection-dropping resize.
  auto tps_for = [](bool serverless) {
    SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
    SalesTransactionSet txns(cfg);
    sim::Environment env;
    cloud::ClusterConfig cluster_cfg = sut::MakeProfile(SutKind::kCdb1, 0.1);
    if (serverless) {
      cluster_cfg.node.memory_follows_vcores = true;
      cluster_cfg.node.vcores = cluster_cfg.autoscaler.min_vcores;
    } else {
      sut::FreezeAtMaxCapacity(&cluster_cfg);
    }
    cloud::Cluster cluster(&env, cluster_cfg, 0);
    cluster.Load(txns.Schemas(), 1);
    cluster.PrewarmBuffers();
    ElasticityEvaluator::Options options;
    options.tau = 80;
    options.slot = sim::Seconds(6);
    ElasticityResult r = ElasticityEvaluator::Run(
        &env, &cluster, &txns, ElasticityPattern::kLargeSpike, options);
    return r.mean_tps;
  };
  EXPECT_LT(tps_for(true), tps_for(false) * 0.85);
}

TEST(ElasticityTest, ParetoScheduleRunsEndToEnd) {
  SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
  Rig rig(SutKind::kCdb4, cfg, 0);
  util::Pcg32 rng(3);
  std::vector<int> schedule = ParetoElasticitySchedule(60, 4, rng);
  ElasticityEvaluator::Options options;
  options.slot = sim::Seconds(3);
  options.cost_window_slots = 4;
  ElasticityResult r = ElasticityEvaluator::RunSchedule(
      &rig.env, rig.cluster.get(), &rig.txns, schedule, options);
  EXPECT_EQ(r.schedule, schedule);
  EXPECT_EQ(r.slot_tps.size(), 4u);
}

// -------------------------------------------------------------- Lag time

TEST_P(PerSutTest, LagEvaluatorMeasuresOnlyRequestedDmlTypes) {
  Rig rig(GetParam(), SalesWorkloadConfig::ReadWrite());
  LagTimeEvaluator::Options options;
  options.concurrency = 10;
  options.warmup = sim::Seconds(1);
  options.measure = sim::Seconds(3);
  options.insert_pct = 100;
  options.update_pct = 0;
  options.delete_pct = 0;
  LagTimeResult r = LagTimeEvaluator::Run(&rig.env, rig.cluster.get(),
                                          options);
  EXPECT_GT(r.insert_lag_ms, 0);
  EXPECT_DOUBLE_EQ(r.update_lag_ms, 0);
  EXPECT_DOUBLE_EQ(r.delete_lag_ms, 0);
  EXPECT_GT(r.records_applied, 0);
}

TEST(LagTimeTest, SeedDrivesTheIudWorkload) {
  auto run = [](uint64_t seed) {
    Rig rig(SutKind::kCdb3, SalesWorkloadConfig::ReadWrite());
    LagTimeEvaluator::Options options;
    options.concurrency = 10;
    options.warmup = sim::Seconds(1);
    options.measure = sim::Seconds(2);
    options.seed = seed;
    LagTimeResult r =
        LagTimeEvaluator::Run(&rig.env, rig.cluster.get(), options);
    return util::FormatDouble(r.update_lag_ms, 6) + " " +
           std::to_string(r.records_applied);
  };
  // Seed 42 (the default) reproduces the lag measured before the seed was
  // plumbed through; another seed drives a different workload.
  EXPECT_EQ(run(42), "10.440600 9045");
  EXPECT_NE(run(7), run(42));
}

// -------------------------------------------------------------- Fail-over

TEST_P(PerSutTest, FailoverEvaluatorObservesOutageAndRecovery) {
  SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
  cfg.route_reads_to_replicas = false;
  Rig rig(GetParam(), cfg);
  FailoverEvaluator::Options options;
  options.concurrency = 80;
  options.warmup = sim::Seconds(4);
  options.target_tps = -1;
  options.max_observation = sim::Seconds(70);
  FailoverResult r = FailoverEvaluator::Run(&rig.env, rig.cluster.get(),
                                            &rig.txns, options);
  EXPECT_TRUE(r.service_lost);
  EXPECT_GT(r.f_seconds, 1.0);
  EXPECT_LT(r.f_seconds, 30.0);
  EXPECT_TRUE(r.tps_recovered);
  EXPECT_GT(r.pre_failure_tps, 1000);
}

TEST(FailoverTest, PostRecoveryRampMakesRScorePositive) {
  SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
  cfg.route_reads_to_replicas = false;
  Rig rig(SutKind::kAwsRds, cfg);
  FailoverEvaluator::Options options;
  options.concurrency = 100;
  options.warmup = sim::Seconds(4);
  options.target_tps = -1;
  options.max_observation = sim::Seconds(80);
  FailoverResult r = FailoverEvaluator::Run(&rig.env, rig.cluster.get(),
                                            &rig.txns, options);
  ASSERT_TRUE(r.service_lost);
  // ARIES restart plus a ~24 s reconnection/warmup ramp: R is substantial.
  EXPECT_GT(r.r_seconds, 5.0);
}

TEST(FailoverTest, Cdb4RecoversFasterThanRds) {
  auto total = [](SutKind kind) {
    SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
    cfg.route_reads_to_replicas = false;
    Rig rig(kind, cfg);
    FailoverEvaluator::Options options;
    options.concurrency = 80;
    options.warmup = sim::Seconds(4);
    options.target_tps = -1;
    options.max_observation = sim::Seconds(80);
    FailoverResult r = FailoverEvaluator::Run(&rig.env, rig.cluster.get(),
                                              &rig.txns, options);
    return r.f_seconds + r.r_seconds;
  };
  EXPECT_LT(total(SutKind::kCdb4) * 3, total(SutKind::kAwsRds));
}

// ------------------------------------------------------------ Multi-tenancy

TEST_P(PerSutTest, TenancyEvaluatorRunsAllPatterns) {
  for (TenancyPattern pattern : AllTenancyPatterns()) {
    sim::Environment env;
    MultiTenantDeployment deployment(&env, GetParam(), 3, 1, 0.1);
    MultiTenancyEvaluator::Options options;
    options.slots = 3;
    options.slot = sim::Seconds(3);
    options.tau = 60;
    TenancyResult r =
        MultiTenancyEvaluator::Run(&env, &deployment, pattern, options);
    EXPECT_EQ(r.tenant_tps.size(), 3u) << TenancyPatternName(pattern);
    EXPECT_GT(r.total_tps, 0) << TenancyPatternName(pattern);
    EXPECT_GT(r.t_score, 0) << TenancyPatternName(pattern);
    EXPECT_GT(r.cost_per_minute.total(), 0);
    // Cost attribution (obs v2): per-tenant commits and metered RUC
    // dollars land alongside the TPS vector.
    ASSERT_EQ(r.tenant_commits.size(), 3u) << TenancyPatternName(pattern);
    ASSERT_EQ(r.tenant_ruc_dollars.size(), 3u) << TenancyPatternName(pattern);
    EXPECT_GT(r.total_commits, 0) << TenancyPatternName(pattern);
    EXPECT_GE(r.window_s, 9.0 - 1e-9);  // 3 slots x 3 s
    for (int i = 0; i < 3; ++i) {
      // Every tenant bills at least its storage footprint, even under the
      // elastic pool where compute is metered by the (unattributed) pool.
      EXPECT_GT(r.tenant_ruc_dollars[static_cast<size_t>(i)], 0)
          << TenancyPatternName(pattern) << " tenant " << i;
    }
  }
}

TEST_P(PerSutTest, TenantClustersExportCostGauges) {
  sim::Environment env;
  MultiTenantDeployment deployment(&env, GetParam(), 2, 1, 0.1);
  env.RunFor(sim::Seconds(5));
  // Each tenant cluster publishes its attributed-RUC gauge under its own
  // metric prefix; ids are the deployment's tenant indices.
  std::map<std::string, double> gauges =
      obs::MetricRegistry::Get().GaugeValues();
  for (int i = 0; i < 2; ++i) {
    std::string suffix = "cost.tenant." + std::to_string(i) + ".ruc_dollars";
    bool found = false;
    for (const auto& [name, value] : gauges) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        found = true;
        EXPECT_GT(value, 0) << name;
      }
    }
    EXPECT_TRUE(found) << "missing gauge ending in " << suffix;
  }
}

TEST(TenancyTest, ModelsMatchPaperAssignments) {
  EXPECT_EQ(TenancyModelFor(SutKind::kAwsRds),
            TenancyModel::kIsolatedInstances);
  EXPECT_EQ(TenancyModelFor(SutKind::kCdb1),
            TenancyModel::kIsolatedInstances);
  EXPECT_EQ(TenancyModelFor(SutKind::kCdb2), TenancyModel::kElasticPool);
  EXPECT_EQ(TenancyModelFor(SutKind::kCdb3), TenancyModel::kBranches);
  EXPECT_EQ(TenancyModelFor(SutKind::kCdb4),
            TenancyModel::kIsolatedInstances);
}

TEST(TenancyTest, IsolatedInstancesTripleNetworkAndIops) {
  sim::Environment env;
  MultiTenantDeployment isolated(&env, SutKind::kAwsRds, 3, 1);
  cloud::ResourceVector r = isolated.TotalResources();
  cloud::ClusterConfig single = sut::MakeProfile(SutKind::kAwsRds);
  EXPECT_DOUBLE_EQ(r.tcp_gbps, single.provisioned_tcp_gbps * 3);
  EXPECT_DOUBLE_EQ(r.iops, single.provisioned_iops * 3);
  EXPECT_DOUBLE_EQ(r.vcores, 12);
}

TEST(TenancyTest, PoolBillsComputeAndNetworkOnce) {
  sim::Environment env;
  MultiTenantDeployment pool(&env, SutKind::kCdb2, 3, 1);
  cloud::ResourceVector r = pool.TotalResources();
  cloud::ClusterConfig single = sut::MakeProfile(SutKind::kCdb2);
  EXPECT_DOUBLE_EQ(r.tcp_gbps, single.provisioned_tcp_gbps);  // once
  EXPECT_DOUBLE_EQ(r.iops, single.provisioned_iops);          // once
  EXPECT_DOUBLE_EQ(r.vcores, 12);                             // pool size
}

TEST(TenancyTest, BranchesShareStorageBillOnce) {
  sim::Environment env;
  MultiTenantDeployment branches(&env, SutKind::kCdb3, 3, 1);
  sim::Environment env2;
  MultiTenantDeployment isolated(&env2, SutKind::kAwsRds, 3, 1);
  EXPECT_LT(branches.TotalResources().storage_gb,
            isolated.TotalResources().storage_gb);
  EXPECT_DOUBLE_EQ(branches.TotalResources().vcores, 12);  // billed at max
}

TEST(TenancyTest, PoolSchedulesStaggeredBetterThanIsolation) {
  // The work-conserving pool gives the single active tenant all 12 vCores;
  // an isolated deployment caps it at 4. Compare the same staggered-high
  // pattern across CDB2 (pool) and CDB4 (isolated): the pool's total TPS
  // must come closer to its own contention TPS than isolation does.
  auto ratio = [](SutKind kind) {
    double tps[2];
    int i = 0;
    for (TenancyPattern p : {TenancyPattern::kHighContention,
                             TenancyPattern::kStaggeredHigh}) {
      sim::Environment env;
      MultiTenantDeployment deployment(&env, kind, 3, 1, 0.1);
      MultiTenancyEvaluator::Options options;
      options.slots = 3;
      options.slot = sim::Seconds(4);
      options.tau = 120;
      tps[i++] =
          MultiTenancyEvaluator::Run(&env, &deployment, p, options).total_tps;
    }
    return tps[1] / tps[0];  // staggered / contention
  };
  EXPECT_GT(ratio(SutKind::kCdb2), ratio(SutKind::kCdb4));
}

// ---------------------------------------------------------------- Testbed

TEST(TestbedTest, RunsMinimalConfig) {
  util::Properties props;
  ASSERT_TRUE(props.ParseString(R"(
      sut = cdb4
      scale_factor = 1
      [oltp]
      enable = true
      concurrency = 20
      seconds = 1
  )").ok());
  runner::Testbed testbed(std::move(props));
  EXPECT_TRUE(testbed.RunAll().ok());
}

TEST(TestbedTest, CustomElasticityScheduleViaPaperKeys) {
  util::Properties props;
  ASSERT_TRUE(props.ParseString(R"(
      sut = cdb3
      [oltp]
      enable = false
      [elasticity]
      enable = true
      tau = 40
      slot_seconds = 2
      elastic_testTime = 4
      first_con = 4
      second_con = 30
      third_con = 15
      fourth_con = 4
  )").ok());
  runner::Testbed testbed(std::move(props));
  EXPECT_TRUE(testbed.RunAll().ok());
}

TEST(TestbedTest, OversizedCustomElasticityScheduleIsError) {
  util::Properties props;
  ASSERT_TRUE(props.ParseString(R"(
      sut = cdb3
      [oltp]
      enable = false
      [elasticity]
      enable = true
      elastic_testTime = 9
  )").ok());
  runner::Testbed testbed(std::move(props));
  EXPECT_EQ(testbed.RunAll().code(), util::StatusCode::kInvalidArgument);
}

TEST(TestbedTest, MissingSutIsError) {
  util::Properties props;
  runner::Testbed testbed(std::move(props));
  EXPECT_TRUE(testbed.RunAll().IsNotFound());
}

TEST(TestbedTest, UnknownSutIsError) {
  util::Properties props;
  props.Set("sut", "oracle");
  runner::Testbed testbed(std::move(props));
  EXPECT_EQ(testbed.RunAll().code(), util::StatusCode::kInvalidArgument);
}

// ------------------------------------------------------------ E2 plumbing

TEST(ScaleOutTest, SpreadReadsGainFromAddedReplica) {
  auto tps_with_nodes = [](int n_ro) {
    SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadOnly();
    cfg.spread_reads_all_nodes = true;
    Rig rig(SutKind::kCdb4, cfg, n_ro);
    OltpEvaluator::Options options;
    options.concurrency = 120;
    options.warmup = sim::Seconds(1);
    options.measure = sim::Seconds(2);
    return OltpEvaluator::Run(&rig.env, rig.cluster.get(), &rig.txns,
                              options)
        .mean_tps;
  };
  double one_node = tps_with_nodes(0);
  double two_nodes = tps_with_nodes(1);
  EXPECT_GT(two_nodes, one_node * 1.5);  // near-linear read scale-out
}

}  // namespace
}  // namespace cloudybench

namespace cloudybench {
namespace {

TEST(TauFinderTest, FindsSaturationNearCpuBound) {
  // tau calibration (paper §II-C): the sweep must stop once doubling the
  // concurrency no longer helps.
  auto make = [](sim::Environment* env) {
    cloud::ClusterConfig cfg = sut::MakeProfile(sut::SutKind::kCdb4);
    sut::FreezeAtMaxCapacity(&cfg);
    return std::make_unique<cloud::Cluster>(env, cfg, 1);
  };
  int tau = FindSaturationConcurrency(1, make, 0.05, 320);
  EXPECT_GE(tau, 40);   // not latency-bound territory
  EXPECT_LE(tau, 320);  // and the sweep terminated
}

}  // namespace
}  // namespace cloudybench

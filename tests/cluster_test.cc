// End-to-end tests of the Cluster substrate with the five SUT profiles:
// topology, transaction flow, replica convergence, replication-lag ordering,
// fail-over (restart-in-place and RO promotion), and metering.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cluster.h"
#include "sim/environment.h"
#include "sut/profiles.h"
#include "util/random.h"

namespace cloudybench::cloud {
namespace {

using storage::Row;
using storage::TableSchema;
using sut::SutKind;
using util::Status;

TableSchema SmallSchema() {
  TableSchema s;
  s.name = "t";
  s.base_rows_per_sf = 2000;
  s.row_bytes = 64;
  s.generator = [](int64_t key) {
    Row r;
    r.key = key;
    r.amount = 10.0;
    return r;
  };
  return s;
}

struct Rig {
  explicit Rig(SutKind kind, int n_ro = 1, bool freeze = true) {
    ClusterConfig cfg = sut::MakeProfile(kind);
    if (freeze) sut::FreezeAtMaxCapacity(&cfg);
    cluster = std::make_unique<Cluster>(&env, cfg, n_ro);
    cluster->Load({SmallSchema()}, /*scale_factor=*/1);
  }
  sim::Environment env;
  std::unique_ptr<Cluster> cluster;
};

/// Read-modify-write worker against the current RW node; retries on
/// unavailability (fail-over) with a small backoff.
sim::Process Worker(sim::Environment* env, Cluster* cluster, uint64_t seed,
                    const bool* stop, int64_t* committed) {
  util::Pcg32 rng(seed);
  while (!*stop) {
    ComputeNode* node = cluster->rw();
    txn::TxnManager& mgr = node->txn();
    storage::SyntheticTable* table = node->tables()->Find("t");
    txn::Transaction txn = mgr.Begin();
    Row row;
    int64_t key = rng.NextInRange(0, 1999);
    Status s = co_await mgr.Get(&txn, table, key, &row, /*for_update=*/true);
    if (s.ok()) {
      row.amount += 1.0;
      s = co_await mgr.Update(&txn, table, row);
    }
    if (s.ok() && txn.active()) {
      s = co_await mgr.Commit(&txn);
      if (s.ok()) ++*committed;
    } else if (txn.active()) {
      mgr.Abort(&txn);
    }
    if (!s.ok()) co_await env->Delay(sim::Millis(50));
  }
}

// ----------------------------------------------------------------- basics

TEST(ProfilesTest, TableIVFacts) {
  // Table IV: engine resources, network fabric, serverless, buffer size.
  ClusterConfig rds = sut::MakeProfile(SutKind::kAwsRds);
  EXPECT_EQ(rds.node.vcores, 4);
  EXPECT_EQ(rds.node.memory_gb, 16);
  EXPECT_EQ(rds.node.buffer_bytes, 128LL << 20);
  EXPECT_TRUE(rds.use_local_disk);
  EXPECT_TRUE(rds.node.write_back);
  EXPECT_EQ(rds.autoscaler.policy, ScalingPolicy::kFixed);

  ClusterConfig cdb2 = sut::MakeProfile(SutKind::kCdb2);
  EXPECT_EQ(cdb2.node.buffer_bytes, 44LL << 20);
  EXPECT_DOUBLE_EQ(cdb2.autoscaler.min_vcores, 0.5);
  EXPECT_EQ(cdb2.autoscaler.policy, ScalingPolicy::kOnDemand);

  ClusterConfig cdb3 = sut::MakeProfile(SutKind::kCdb3);
  EXPECT_DOUBLE_EQ(cdb3.autoscaler.min_vcores, 0.25);
  EXPECT_TRUE(cdb3.autoscaler.scale_to_zero);
  EXPECT_EQ(cdb3.replay.mode, repl::ReplayMode::kParallel);

  ClusterConfig cdb4 = sut::MakeProfile(SutKind::kCdb4);
  EXPECT_EQ(cdb4.node.buffer_bytes, 10LL << 30);
  EXPECT_TRUE(cdb4.remote_buffer);
  EXPECT_EQ(cdb4.remote_buffer_bytes, 24LL << 30);
  EXPECT_DOUBLE_EQ(cdb4.provisioned_rdma_gbps, 10.0);
  EXPECT_TRUE(cdb4.recovery.promote_ro);
  EXPECT_EQ(cdb4.node_storage_link.fabric, net::Fabric::kRdma);

  ClusterConfig cdb1 = sut::MakeProfile(SutKind::kCdb1);
  EXPECT_EQ(cdb1.storage.replication_factor, 6);
  EXPECT_DOUBLE_EQ(cdb1.storage_billing_factor, 6.0);
  EXPECT_EQ(cdb1.autoscaler.policy, ScalingPolicy::kReactiveUpGradualDown);
}

TEST(ProfilesTest, ServerlessFlagsMatchTableIV) {
  EXPECT_FALSE(sut::IsServerless(SutKind::kAwsRds));
  EXPECT_TRUE(sut::IsServerless(SutKind::kCdb1));
  EXPECT_TRUE(sut::IsServerless(SutKind::kCdb2));
  EXPECT_TRUE(sut::IsServerless(SutKind::kCdb3));
  EXPECT_FALSE(sut::IsServerless(SutKind::kCdb4));
}

TEST(ProfilesTest, ParseSutAcceptsShortAndDisplayNames) {
  EXPECT_EQ(*sut::ParseSut("rds"), SutKind::kAwsRds);
  EXPECT_EQ(*sut::ParseSut("AWS RDS"), SutKind::kAwsRds);
  EXPECT_EQ(*sut::ParseSut("CDB4"), SutKind::kCdb4);
  util::Result<SutKind> unknown = sut::ParseSut("oracle");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ProfilesTest, TimeScaleCompressesControlPlaneOnly) {
  ClusterConfig full = sut::MakeProfile(SutKind::kCdb1, 1.0);
  ClusterConfig fast = sut::MakeProfile(SutKind::kCdb1, 0.1);
  EXPECT_EQ(fast.autoscaler.down_cooldown.us,
            full.autoscaler.down_cooldown.us / 10);
  EXPECT_EQ(fast.autoscaler.control_interval.us,
            full.autoscaler.control_interval.us / 10);
  // Data-plane constants are untouched.
  EXPECT_EQ(fast.node.cpu_costs.read.us, full.node.cpu_costs.read.us);
  EXPECT_EQ(fast.replay.ship_interval.us, full.replay.ship_interval.us);
  EXPECT_EQ(fast.recovery.base_restart.us, full.recovery.base_restart.us);
}

TEST(ClusterTest, LoadCreatesTopology) {
  Rig rig(SutKind::kCdb1, /*n_ro=*/2);
  EXPECT_NE(rig.cluster->rw(), nullptr);
  EXPECT_EQ(rig.cluster->ro_count(), 2u);
  EXPECT_EQ(rig.cluster->replayer_count(), 2u);
  EXPECT_TRUE(rig.cluster->rw()->is_rw());
  EXPECT_FALSE(rig.cluster->ro(0)->is_rw());
  // Replicas seeded identically.
  EXPECT_EQ(rig.cluster->canonical()->StateHash(),
            rig.cluster->ro(0)->tables()->StateHash());
}

TEST(ClusterTest, RouteReadRoundRobinsAndFallsBack) {
  Rig rig(SutKind::kCdb1, 2);
  ComputeNode* a = rig.cluster->RouteRead();
  ComputeNode* b = rig.cluster->RouteRead();
  EXPECT_NE(a, b);
  rig.cluster->ro(0)->SetAvailable(false);
  rig.cluster->ro(1)->SetAvailable(false);
  EXPECT_EQ(rig.cluster->RouteRead(), rig.cluster->rw());
}

// ----------------------------------------------- commit flow + replication

TEST(ClusterTest, EndToEndCommitsAndReplicaConvergence) {
  for (SutKind kind : sut::AllSuts()) {
    Rig rig(kind, 1);
    bool stop = false;
    int64_t committed = 0;
    for (int w = 0; w < 8; ++w) {
      rig.env.Spawn(Worker(&rig.env, rig.cluster.get(),
                           100 + static_cast<uint64_t>(w), &stop, &committed));
    }
    rig.env.RunUntil(sim::Seconds(5));
    stop = true;
    // Drain in-flight transactions and replication.
    rig.env.RunUntil(sim::Seconds(15));
    EXPECT_GT(committed, 100) << sut::SutName(kind);
    EXPECT_EQ(rig.cluster->TotalCommits(), committed) << sut::SutName(kind);

    // Replica has applied the full log and converged to primary state.
    repl::Replayer* rep = rig.cluster->replayer(0);
    EXPECT_EQ(rep->applied_lsn(), rig.cluster->log_manager()->appended_lsn())
        << sut::SutName(kind);
    EXPECT_EQ(rig.cluster->canonical()->StateHash(),
              rep->replica_tables()->StateHash())
        << sut::SutName(kind);
  }
}

TEST(ClusterTest, ReplicationLagOrderingMatchesPaper) {
  // §III-F: CDB4 (RDMA invalidation) << CDB3 (parallel) << CDB1
  // (sequential) << CDB2 (log->page hop). Run identical write load.
  auto run = [](SutKind kind) {
    Rig rig(kind, 1);
    bool stop = false;
    int64_t committed = 0;
    for (int w = 0; w < 4; ++w) {
      rig.env.Spawn(Worker(&rig.env, rig.cluster.get(),
                           7 + static_cast<uint64_t>(w), &stop, &committed));
    }
    rig.env.RunUntil(sim::Seconds(5));
    stop = true;
    rig.env.RunUntil(sim::Seconds(15));
    return rig.cluster->replayer(0)->UpdateLag().mean();
  };
  double cdb4 = run(SutKind::kCdb4);
  double cdb3 = run(SutKind::kCdb3);
  double cdb1 = run(SutKind::kCdb1);
  double cdb2 = run(SutKind::kCdb2);
  EXPECT_LT(cdb4, cdb3);
  EXPECT_LT(cdb3, cdb1);
  EXPECT_LT(cdb1, cdb2);
  EXPECT_LT(cdb4, 3.0);     // ~1.5 ms in the paper
  EXPECT_GT(cdb2, 500.0);   // ~1082 ms in the paper
}

// ------------------------------------------------------------- fail-over

TEST(ClusterTest, RdsRwRestartRecoversInPlace) {
  Rig rig(SutKind::kAwsRds, 1);
  bool stop = false;
  int64_t committed = 0;
  for (int w = 0; w < 4; ++w) {
    rig.env.Spawn(Worker(&rig.env, rig.cluster.get(),
                         31 + static_cast<uint64_t>(w), &stop, &committed));
  }
  ComputeNode* original_rw = rig.cluster->rw();
  rig.cluster->InjectRwRestart(sim::Seconds(5));
  rig.env.RunUntil(sim::Seconds(6));
  EXPECT_FALSE(rig.cluster->rw_available());
  int64_t committed_at_failure = committed;
  rig.env.RunUntil(sim::Seconds(60));
  stop = true;
  rig.env.RunUntil(sim::Seconds(70));
  // Same node recovered (no promotion for RDS) and service resumed.
  EXPECT_EQ(rig.cluster->rw(), original_rw);
  EXPECT_TRUE(rig.cluster->rw_available());
  EXPECT_GT(committed, committed_at_failure + 50);
}

TEST(ClusterTest, Cdb4RwFailurePromotesRo) {
  Rig rig(SutKind::kCdb4, 1);
  bool stop = false;
  int64_t committed = 0;
  for (int w = 0; w < 4; ++w) {
    rig.env.Spawn(Worker(&rig.env, rig.cluster.get(),
                         77 + static_cast<uint64_t>(w), &stop, &committed));
  }
  ComputeNode* original_rw = rig.cluster->rw();
  ComputeNode* original_ro = rig.cluster->ro(0);
  rig.cluster->InjectRwRestart(sim::Seconds(5));
  // Fig. 7 timeline: detect 0.5s + prepare 1s + switchover 2s => service
  // resumes ~3.5s after injection on the promoted node.
  rig.env.RunUntil(sim::Seconds(10));
  EXPECT_EQ(rig.cluster->rw(), original_ro);
  EXPECT_TRUE(rig.cluster->rw_available());
  EXPECT_TRUE(rig.cluster->rw()->is_rw());
  // The failed node rejoins as an RO.
  rig.env.RunUntil(sim::Seconds(30));
  ASSERT_EQ(rig.cluster->ro_count(), 1u);
  EXPECT_EQ(rig.cluster->ro(0), original_rw);
  EXPECT_FALSE(rig.cluster->ro(0)->is_rw());
  stop = true;
  rig.env.RunUntil(sim::Seconds(40));
  // Writes continued on the new RW.
  EXPECT_GT(committed, 100);
}

TEST(ClusterTest, CommittedDataSurvivesFailover) {
  Rig rig(SutKind::kCdb4, 1);
  bool stop = false;
  int64_t committed = 0;
  rig.env.Spawn(Worker(&rig.env, rig.cluster.get(), 5, &stop, &committed));
  rig.env.RunUntil(sim::Seconds(4));
  stop = true;
  rig.env.RunUntil(sim::Seconds(5));
  uint64_t hash_before = rig.cluster->canonical()->StateHash();
  int64_t committed_before = committed;
  rig.cluster->InjectRwRestart(sim::Seconds(5));
  rig.env.RunUntil(sim::Seconds(30));
  EXPECT_EQ(rig.cluster->canonical()->StateHash(), hash_before);
  EXPECT_EQ(committed, committed_before);
}

TEST(ClusterTest, RwRestartWhileRecoveryInFlightIsIgnored) {
  // Regression: a second InjectRwRestart landing while the first recovery
  // is still in flight used to re-snapshot the (already down) node's dirty/
  // active/backlog figures and corrupt the recovery model's inputs. The
  // guard must ignore it and recovery must still complete normally.
  Rig rig(SutKind::kAwsRds, 1);
  bool stop = false;
  int64_t committed = 0;
  for (int w = 0; w < 4; ++w) {
    rig.env.Spawn(Worker(&rig.env, rig.cluster.get(),
                         51 + static_cast<uint64_t>(w), &stop, &committed));
  }
  rig.cluster->InjectRwRestart(sim::Seconds(5));
  rig.env.RunUntil(sim::Seconds(6));
  EXPECT_FALSE(rig.cluster->rw_available());
  EXPECT_TRUE(rig.cluster->rw_recovery_in_flight());

  // Double injection mid-recovery: ignored, does not restart the clock or
  // spawn a second recovery.
  rig.cluster->InjectRwRestart(sim::Seconds(6));
  rig.env.RunUntil(sim::Seconds(8));
  EXPECT_TRUE(rig.cluster->rw_recovery_in_flight());

  rig.env.RunUntil(sim::Seconds(60));
  stop = true;
  rig.env.RunUntil(sim::Seconds(70));
  EXPECT_TRUE(rig.cluster->rw_available());
  EXPECT_FALSE(rig.cluster->rw_recovery_in_flight());
  EXPECT_GT(committed, 100);
}

TEST(ClusterTest, PromotePathClearsRecoveryInFlightOnRejoin) {
  // CDB4's promote path holds the guard until the failed node has fully
  // rejoined as an RO, so a crash landing mid-switch-over cannot corrupt
  // the reshuffle.
  Rig rig(SutKind::kCdb4, 1);
  rig.cluster->InjectRwRestart(sim::Seconds(5));
  rig.env.RunUntil(sim::Seconds(10));
  // New RW is serving but the old node has not rejoined yet.
  EXPECT_TRUE(rig.cluster->rw_available());
  EXPECT_TRUE(rig.cluster->rw_recovery_in_flight());
  rig.cluster->InjectRwRestart(sim::Seconds(10));
  rig.env.RunUntil(sim::Seconds(11));
  EXPECT_TRUE(rig.cluster->rw_available());  // injection was ignored
  rig.env.RunUntil(sim::Seconds(30));
  EXPECT_FALSE(rig.cluster->rw_recovery_in_flight());
  EXPECT_EQ(rig.cluster->ro_count(), 1u);
}

TEST(ClusterTest, RoRestartRoutesReadsToRw) {
  Rig rig(SutKind::kCdb3, 1);
  rig.cluster->InjectRoRestart(0, sim::Seconds(1));
  rig.env.RunUntil(sim::Seconds(2));
  EXPECT_FALSE(rig.cluster->ro(0)->available());
  EXPECT_EQ(rig.cluster->RouteRead(), rig.cluster->rw());
  rig.env.RunUntil(sim::Seconds(30));
  EXPECT_TRUE(rig.cluster->ro(0)->available());
  EXPECT_EQ(rig.cluster->RouteRead(), rig.cluster->ro(0));
}

// ------------------------------------------------------- metering & misc

TEST(ClusterTest, MeterProducesTableVShapedCosts) {
  Rig rds(SutKind::kAwsRds, 1);
  rds.env.RunUntil(sim::Seconds(60));
  CostBreakdown cost = rds.cluster->meter().RucCost(0, 60);
  EXPECT_GT(cost.cpu, 0);
  EXPECT_GT(cost.network, 0);
  // Two nodes x 4 vCores.
  EXPECT_NEAR(rds.cluster->meter().MeanAllocated(0, 60).vcores, 8.0, 0.2);

  // CDB2's billed IOPS dwarfs RDS's (327680 vs 1000; paper: 327x cost).
  Rig cdb2(SutKind::kCdb2, 1);
  cdb2.env.RunUntil(sim::Seconds(60));
  CostBreakdown cdb2_cost = cdb2.cluster->meter().RucCost(0, 60);
  EXPECT_GT(cdb2_cost.iops, cost.iops * 100);
}

TEST(ClusterTest, AddRoNodeSeedsReplicaFromCurrentState) {
  Rig rig(SutKind::kCdb1, 0);
  bool stop = false;
  int64_t committed = 0;
  rig.env.Spawn(Worker(&rig.env, rig.cluster.get(), 9, &stop, &committed));
  rig.env.RunUntil(sim::Seconds(3));
  stop = true;
  rig.env.RunUntil(sim::Seconds(6));
  ASSERT_GT(committed, 0);
  size_t idx = rig.cluster->AddRoNode();
  EXPECT_EQ(rig.cluster->ro_count(), 1u);
  EXPECT_EQ(rig.cluster->canonical()->StateHash(),
            rig.cluster->ro(idx)->tables()->StateHash());
}

TEST(ClusterTest, Cdb4RemoteBufferStaysWarmAcrossRestart) {
  Rig rig(SutKind::kCdb4, 1);
  bool stop = false;
  int64_t committed = 0;
  rig.env.Spawn(Worker(&rig.env, rig.cluster.get(), 3, &stop, &committed));
  rig.env.RunUntil(sim::Seconds(4));
  stop = true;
  rig.env.RunUntil(sim::Seconds(5));
  int64_t resident_before = rig.cluster->remote_buffer()->resident_pages();
  ASSERT_GT(resident_before, 0);
  rig.cluster->InjectRwRestart(sim::Seconds(5));
  rig.env.RunUntil(sim::Seconds(20));
  // The remote tier is not cleared by a compute restart — this is the
  // mechanism behind CDB4's fast TPS recovery (paper §III-E).
  EXPECT_GE(rig.cluster->remote_buffer()->resident_pages(), resident_before);
}

TEST(ClusterTest, PrewarmedRoPoolsMatchTheRwPool) {
  // PrewarmBuffers prewarms every pool on its own; pools of the same shape
  // must end up holding the same pages. Check over the whole page space,
  // both with the profile's buffer (every page fits) and with a buffer that
  // holds only a fraction of each table.
  for (int64_t buffer_pages : {int64_t{0}, int64_t{40}}) {
    sim::Environment env;
    ClusterConfig cfg = sut::MakeProfile(SutKind::kCdb4);
    if (buffer_pages > 0) {
      cfg.node.buffer_bytes = buffer_pages * storage::BufferPool::kPageBytes;
    }
    Cluster cluster(&env, cfg, /*n_ro_nodes=*/2);
    TableSchema wide = SmallSchema();
    wide.name = "u";
    wide.base_rows_per_sf = 20000;
    cluster.Load({SmallSchema(), wide}, /*scale_factor=*/1);
    cluster.PrewarmBuffers();
    const storage::BufferPool& rw = cluster.rw()->buffer();
    ASSERT_GT(rw.resident_pages(), 0);
    ASSERT_EQ(cluster.ro_count(), 2u);
    for (size_t i = 0; i < cluster.ro_count(); ++i) {
      const storage::BufferPool& ro = cluster.ro(i)->buffer();
      EXPECT_EQ(ro.resident_pages(), rw.resident_pages());
      for (const auto& table : cluster.canonical()->tables()) {
        for (int64_t page = 0; page < table->pages(); ++page) {
          storage::PageId id{table->id(), page};
          ASSERT_EQ(ro.IsResident(id), rw.IsResident(id))
              << "buffer_pages " << buffer_pages << " ro " << i << " table "
              << table->id() << " page " << page;
        }
      }
    }
  }
}

sim::Process FetchOnce(RemoteBufferPool* remote, storage::PageId page) {
  co_await remote->Fetch(page);
}

TEST(ClusterTest, Cdb4RemotePoolPrewarmCountsNoMisses) {
  // Prewarming the remote pool must not count its pages as misses, or
  // hit_rate() starts near zero whatever traffic follows. No stdout or JSONL
  // output reads this counter today; this pins the counter itself.
  Rig rig(SutKind::kCdb4, 1);
  rig.cluster->PrewarmBuffers();
  RemoteBufferPool* remote = rig.cluster->remote_buffer();
  ASSERT_NE(remote, nullptr);
  storage::PageId page{rig.cluster->canonical()->tables()[0]->id(), 0};
  ASSERT_TRUE(remote->Contains(page));
  rig.env.Spawn(FetchOnce(remote, page));
  rig.env.RunUntil(sim::Seconds(1));
  EXPECT_EQ(remote->fetches(), 1);
  EXPECT_DOUBLE_EQ(remote->hit_rate(), 1.0);
}

}  // namespace
}  // namespace cloudybench::cloud

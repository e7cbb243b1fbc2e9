// Fault-injection and graceful-degradation tests (DESIGN.md §4g): the plan
// grammar (strict parsing), the per-layer fault hooks (link, disk, replay),
// the injector's target resolution across architectures, the SUT-side
// degradation machinery (fetch deadlines, circuit breaker, load shedding),
// and determinism of a faulted run.

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cloud/cluster.h"
#include "cloud/degradation.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/scenarios.h"
#include "net/network.h"
#include "sim/environment.h"
#include "storage/disk.h"
#include "sut/profiles.h"
#include "util/random.h"

namespace cloudybench::fault {
namespace {

using cloud::Cluster;
using cloud::ClusterConfig;
using cloud::ComputeNode;
using cloud::DegradationController;
using cloud::DegradationPolicy;
using storage::Row;
using storage::TableSchema;
using sim::ParseDuration;
using sut::SutKind;
using util::Status;
using util::StatusCode;

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
  explicit Rig(SutKind kind, int n_ro = 1) {
    ClusterConfig cfg = sut::MakeProfile(kind);
    sut::FreezeAtMaxCapacity(&cfg);
    cluster = std::make_unique<Cluster>(&env, cfg, n_ro);
    cluster->Load({SmallSchema()}, /*scale_factor=*/1);
  }
  sim::Environment env;
  std::unique_ptr<Cluster> cluster;
};

/// Read-modify-write worker with retry-on-error (same shape as the cluster
/// tests); drives load so faults have something to bite.
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

/// Point-read worker; `reads` counts successful gets, `last_status` records
/// the most recent failure (fetch-timeout assertions).
sim::Process Reader(sim::Environment* env, Cluster* cluster, uint64_t seed,
                    const bool* stop, int64_t* reads, Status* last_status) {
  util::Pcg32 rng(seed);
  while (!*stop) {
    ComputeNode* node = cluster->rw();
    txn::TxnManager& mgr = node->txn();
    storage::SyntheticTable* table = node->tables()->Find("t");
    txn::Transaction txn = mgr.Begin();
    Row row;
    Status s = co_await mgr.Get(&txn, table, rng.NextInRange(0, 1999), &row,
                                /*for_update=*/false);
    if (txn.active()) mgr.Abort(&txn);
    if (s.ok()) {
      ++*reads;
    } else {
      *last_status = s;
      co_await env->Delay(sim::Millis(10));
    }
  }
}

// ------------------------------------------------------------ plan grammar

TEST(FaultPlanTest, ParseDurationAcceptsTheThreeSuffixes) {
  EXPECT_EQ(ParseDuration("5s")->us, 5000000);
  EXPECT_EQ(ParseDuration("250ms")->us, 250000);
  EXPECT_EQ(ParseDuration("1500us")->us, 1500);
  EXPECT_EQ(ParseDuration("0.5s")->us, 500000);
}

TEST(FaultPlanTest, ParseDurationRejectsMalformedInput) {
  EXPECT_EQ(ParseDuration("").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("5").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("5m").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("s").status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("x5s").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("5s x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseDuration("-3s").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, ParseFaultSpecRoundTrips) {
  util::Result<FaultSpec> spec = ParseFaultSpec(
      "kind=crash-loop,target=rw,at=5s,duration=24s,magnitude=8");
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  EXPECT_EQ(spec->kind, FaultKind::kCrashLoop);
  EXPECT_EQ(spec->target, "rw");
  EXPECT_EQ(spec->at, sim::Seconds(5));
  EXPECT_EQ(spec->duration, sim::Seconds(24));
  EXPECT_DOUBLE_EQ(spec->magnitude, 8.0);
  EXPECT_EQ(spec->ToString(),
            "crash-loop target=rw at=5s duration=24s magnitude=8");
}

TEST(FaultPlanTest, ParseFaultSpecRejectsMalformedSpecs) {
  auto code = [](std::string_view text) {
    return ParseFaultSpec(text).status().code();
  };
  // Unknown kind / key, missing required keys, non key=value fields.
  EXPECT_EQ(code("kind=meteor,target=rw"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=crash,target=rw,severity=9"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("target=rw"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=crash"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=crash,target=rw,oops"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=crash,target=rw,at=5 minutes"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=crash,target=rw,magnitude=big"),
            StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, GrammarErrorsCarryByteOffsetAndToken) {
  auto message = [](std::string_view text) {
    return std::string(ParseFaultSpec(text).status().message());
  };
  // Unknown kind: offset of the value, not the pair.
  EXPECT_NE(message("kind=meteor,target=rw")
                .find("at byte 5, token 'meteor': unknown fault kind"),
            std::string::npos);
  // Malformed duration value inside at=.
  std::string bad_at = message("kind=crash,target=rw,at=5q");
  EXPECT_NE(bad_at.find("at byte 24, token '5q'"), std::string::npos);
  // A bare field that is not key=value points at the whole field.
  EXPECT_NE(message("kind=crash,target=rw,bogus")
                .find("at byte 21, token 'bogus': field is not key=value"),
            std::string::npos);
  // Unknown key points at the key.
  EXPECT_NE(message("kind=crash,target=rw,severity=9")
                .find("at byte 21, token 'severity': unknown fault spec key"),
            std::string::npos);
  // Missing required keys anchor at the spec start with the full text.
  EXPECT_NE(message("target=rw")
                .find("at byte 0, token 'target=rw': fault spec is missing "
                      "kind="),
            std::string::npos);
  // Malformed magnitude points at the value.
  EXPECT_NE(message("kind=crash,target=rw,magnitude=big")
                .find("at byte 31, token 'big': malformed magnitude"),
            std::string::npos);
  // Plan-level parsing reports offsets into the *whole* plan string, so a
  // bad token in the second spec is addressable with one glance.
  std::string plan_err = std::string(
      ParseFaultPlan("kind=crash,target=rw;kind=nope,target=rw")
          .status()
          .message());
  EXPECT_NE(plan_err.find("at byte 26, token 'nope': unknown fault kind"),
            std::string::npos);
}

TEST(FaultPlanTest, ParseFaultSpecEnforcesPerKindConstraints) {
  auto code = [](std::string_view text) {
    return ParseFaultSpec(text).status().code();
  };
  // Wrong target class for the kind.
  EXPECT_EQ(code("kind=crash,target=storage"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=crash-loop,target=ro"), StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=disk-fail-slow,target=link.storage,duration=5s,"
                 "magnitude=4"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=replay-stall,target=rw,duration=5s"),
            StatusCode::kInvalidArgument);
  // Clearing kinds need a positive duration; factors must be >= 1.
  EXPECT_EQ(code("kind=link-degrade,target=link.storage,magnitude=4"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=link-degrade,target=link.storage,duration=5s,"
                 "magnitude=0.5"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=link-blackhole,target=link.repl"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=disk-fail-slow,target=disk,duration=5s,magnitude=0.9"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(code("kind=crash-loop,target=rw,duration=10s"),
            StatusCode::kInvalidArgument);
  // ro<N> targets must be all digits after the prefix.
  EXPECT_EQ(code("kind=crash,target=rogue"), StatusCode::kInvalidArgument);
  EXPECT_TRUE(ParseFaultSpec("kind=crash,target=ro2").ok());
}

TEST(FaultPlanTest, ParseFaultPlanSplitsAndSkipsEmptyPieces) {
  util::Result<FaultPlan> plan = ParseFaultPlan(
      "kind=crash,target=rw,at=5s;;"
      "kind=link-degrade,target=link.storage,at=2s,duration=10s,magnitude=4;");
  ASSERT_TRUE(plan.ok()) << plan.status().message();
  ASSERT_EQ(plan->specs.size(), 2u);
  EXPECT_EQ(plan->specs[0].kind, FaultKind::kCrash);
  EXPECT_EQ(plan->specs[1].kind, FaultKind::kLinkDegrade);
  // Window helpers: earliest injection, latest clear.
  EXPECT_EQ(plan->FirstInjectAt(), sim::Seconds(2));
  EXPECT_EQ(plan->LastClearAt(), sim::Seconds(12));

  util::Result<FaultPlan> empty = ParseFaultPlan("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
  EXPECT_EQ(empty->FirstInjectAt(), sim::SimTime{0});

  // One bad spec poisons the whole plan (strict parsing).
  EXPECT_EQ(ParseFaultPlan("kind=crash,target=rw;kind=nope,target=rw")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(FaultPlanTest, BuiltinScenariosAllParse) {
  const std::vector<Scenario>& scenarios = BuiltinScenarios();
  ASSERT_GE(scenarios.size(), 6u);
  for (const Scenario& scenario : scenarios) {
    util::Result<FaultPlan> plan = ParseFaultPlan(scenario.plan);
    ASSERT_TRUE(plan.ok()) << scenario.name << ": " << plan.status().message();
    EXPECT_FALSE(plan->empty()) << scenario.name;
  }
  ASSERT_NE(FindScenario("crash"), nullptr);
  EXPECT_EQ(FindScenario("no-such-scenario"), nullptr);
  EXPECT_EQ(ParseFaultPlan(FindScenario("crash")->plan)->FirstInjectAt(),
            sim::Seconds(5));
}

// ------------------------------------------------------------- layer hooks

TEST(FaultHookTest, LinkDegradeAndBlackholeShapeEstimates) {
  sim::Environment env;
  net::Link link(&env, net::LinkConfig::Tcp10G("t"));
  sim::SimTime nominal = link.EstimatedTransferDelay(8192);
  EXPECT_GT(nominal.us, 0);

  link.SetDegraded(16.0, 16.0);
  EXPECT_TRUE(link.degraded());
  EXPECT_GE(link.EstimatedTransferDelay(8192).us, 16 * nominal.us);

  link.SetBlackhole(true);
  EXPECT_TRUE(link.blackholed());
  EXPECT_EQ(link.EstimatedTransferDelay(8192), net::Link::kUnreachable);

  link.ClearFaults();
  EXPECT_FALSE(link.degraded());
  EXPECT_FALSE(link.blackholed());
  EXPECT_EQ(link.EstimatedTransferDelay(8192), nominal);
}

sim::Process TransferOnce(net::Link* link, bool* done) {
  co_await link->Transfer(4096);
  *done = true;
}

TEST(FaultHookTest, BlackholedTransferParksUntilCleared) {
  sim::Environment env;
  net::Link link(&env, net::LinkConfig::Tcp10G("t"));
  link.SetBlackhole(true);
  bool done = false;
  env.Spawn(TransferOnce(&link, &done));
  env.RunUntil(sim::Seconds(10));
  EXPECT_FALSE(done);  // parked, not delivered
  link.SetBlackhole(false);
  env.RunUntil(sim::Seconds(11));
  EXPECT_TRUE(done);
}

TEST(FaultHookTest, DiskFailSlowDegradesEstimates) {
  sim::Environment env;
  storage::DiskDevice::Config cfg;
  cfg.name = "d";
  storage::DiskDevice disk(&env, cfg);
  sim::SimTime nominal = disk.EstimatedReadDelay(8192);

  disk.SetFailSlow(8.0, 8.0);
  EXPECT_TRUE(disk.fail_slow());
  EXPECT_GE(disk.EstimatedReadDelay(8192).us, 8 * cfg.read_latency.us);
  EXPECT_GE(disk.EstimatedWriteDelay(8192).us, 8 * cfg.write_latency.us);

  disk.ClearFailSlow();
  EXPECT_FALSE(disk.fail_slow());
  EXPECT_EQ(disk.EstimatedReadDelay(8192), nominal);
}

TEST(FaultHookTest, ReplayStallGrowsBacklogThenCatchesUp) {
  Rig rig(SutKind::kCdb1, 1);
  bool stop = false;
  int64_t committed = 0;
  for (int w = 0; w < 4; ++w) {
    rig.env.Spawn(Worker(&rig.env, rig.cluster.get(),
                         11 + static_cast<uint64_t>(w), &stop, &committed));
  }
  rig.cluster->replayer(0)->SetStalled(true);
  rig.env.RunUntil(sim::Seconds(5));
  EXPECT_GT(committed, 0);
  EXPECT_GT(rig.cluster->replayer(0)->backlog(), 0);
  EXPECT_LT(rig.cluster->replayer(0)->applied_lsn(),
            rig.cluster->log_manager()->appended_lsn());

  rig.cluster->replayer(0)->SetStalled(false);
  stop = true;
  rig.env.RunUntil(sim::Seconds(20));
  EXPECT_EQ(rig.cluster->replayer(0)->backlog(), 0);
  EXPECT_EQ(rig.cluster->replayer(0)->applied_lsn(),
            rig.cluster->log_manager()->appended_lsn());
  EXPECT_EQ(rig.cluster->canonical()->StateHash(),
            rig.cluster->replayer(0)->replica_tables()->StateHash());
}

// --------------------------------------------------------------- injector

TEST(FaultInjectorTest, SkipsTargetsTheSutLacks) {
  // CDB1 has no local NVMe and no RDMA fabric: those specs are skipped so
  // one plan can span all five architectures.
  Rig cdb1(SutKind::kCdb1, 1);
  FaultInjector injector(&cdb1.env, cdb1.cluster.get());
  FaultPlan plan = *ParseFaultPlan(
      "kind=disk-fail-slow,target=disk,at=1s,duration=2s,magnitude=4;"
      "kind=link-degrade,target=link.rdma,at=1s,duration=2s,magnitude=4");
  EXPECT_EQ(injector.Arm(plan, sim::SimTime{0}), 0);
  EXPECT_EQ(injector.skipped(), 2);

  // RDS has the local disk.
  Rig rds(SutKind::kAwsRds, 1);
  FaultInjector rds_injector(&rds.env, rds.cluster.get());
  EXPECT_EQ(rds_injector.Arm(
                *ParseFaultPlan(
                    "kind=disk-fail-slow,target=disk,at=1s,duration=2s,"
                    "magnitude=4"),
                sim::SimTime{0}),
            1);
  EXPECT_EQ(rds_injector.skipped(), 0);
}

TEST(FaultInjectorTest, DrivesCrashAndRecovery) {
  Rig rig(SutKind::kAwsRds, 1);
  FaultInjector injector(&rig.env, rig.cluster.get());
  injector.Arm(*ParseFaultPlan("kind=crash,target=rw,at=1s"), sim::SimTime{0});
  rig.env.RunUntil(sim::Seconds(2));
  EXPECT_EQ(injector.injected(), 1);
  EXPECT_FALSE(rig.cluster->rw_available());
  rig.env.RunUntil(sim::Seconds(60));
  EXPECT_TRUE(rig.cluster->rw_available());
}

TEST(FaultInjectorTest, ClearsLinkDegradeOnSchedule) {
  Rig rig(SutKind::kCdb1, 1);
  FaultInjector injector(&rig.env, rig.cluster.get());
  injector.Arm(*ParseFaultPlan("kind=link-degrade,target=link.storage,at=1s,"
                               "duration=2s,magnitude=16"),
               sim::SimTime{0});
  std::vector<net::Link*> links = rig.cluster->LinksByRole("storage");
  ASSERT_FALSE(links.empty());
  rig.env.RunUntil(sim::Millis(1500));
  for (net::Link* link : links) EXPECT_TRUE(link->degraded());
  rig.env.RunUntil(sim::Seconds(4));
  for (net::Link* link : links) EXPECT_FALSE(link->degraded());
  EXPECT_EQ(injector.injected(), 1);
  EXPECT_EQ(injector.cleared(), 1);
}

TEST(FaultInjectorTest, OverlappingReplayStallsComposeAsUnion) {
  // Windows [1s,3s) and [2s,7s): the effect ledger keeps the replayer
  // stalled across the first clear and releases it only when the *last*
  // overlapping window ends.
  Rig rig(SutKind::kCdb1, 1);
  FaultInjector injector(&rig.env, rig.cluster.get());
  injector.Arm(*ParseFaultPlan(
                   "kind=replay-stall,target=replay,at=1s,duration=2s;"
                   "kind=replay-stall,target=replay,at=2s,duration=5s"),
               sim::SimTime{0});
  rig.env.RunUntil(sim::Seconds(4));
  // First window cleared at 3s, second still open.
  EXPECT_TRUE(rig.cluster->replayer(0)->stalled());
  rig.env.RunUntil(sim::Seconds(8));
  EXPECT_FALSE(rig.cluster->replayer(0)->stalled());
  EXPECT_EQ(injector.injected(), 2);
  EXPECT_EQ(injector.cleared(), 2);
}

TEST(FaultInjectorTest, OverlappingLinkDegradesKeepTheStrongerFactor) {
  Rig rig(SutKind::kCdb1, 1);
  FaultInjector injector(&rig.env, rig.cluster.get());
  injector.Arm(*ParseFaultPlan(
                   "kind=link-degrade,target=link.storage,at=1s,duration=2s,"
                   "magnitude=16;"
                   "kind=link-degrade,target=link.storage,at=2s,duration=4s,"
                   "magnitude=4"),
               sim::SimTime{0});
  std::vector<net::Link*> links = rig.cluster->LinksByRole("storage");
  ASSERT_FALSE(links.empty());
  rig.env.RunUntil(sim::Millis(3500));
  // The 16x window has cleared, but the 4x window must still hold.
  for (net::Link* link : links) EXPECT_TRUE(link->degraded());
  rig.env.RunUntil(sim::Seconds(7));
  for (net::Link* link : links) EXPECT_FALSE(link->degraded());
}

TEST(FaultInjectorTest, RwCrashDuringLinkDegradeClearsCleanly) {
  // Regression for the orphaned-fault audit: the RW crashes in the middle
  // of a link-degrade window. The crash path re-resolves and re-applies
  // every live windowed effect, and the scheduled clear at window end must
  // leave every link pristine — no fault bleeding past its window because
  // a role moved mid-flight.
  Rig rig(SutKind::kAwsRds, 2);
  FaultInjector injector(&rig.env, rig.cluster.get());
  injector.Arm(*ParseFaultPlan(
                   "kind=link-degrade,target=link.storage,at=1s,duration=6s,"
                   "magnitude=8;"
                   "kind=crash,target=rw,at=2s"),
               sim::SimTime{0});
  rig.env.RunUntil(sim::Seconds(3));
  EXPECT_EQ(injector.injected(), 2);
  rig.env.RunUntil(sim::Seconds(60));
  EXPECT_TRUE(rig.cluster->rw_available());
  for (net::Link* link : rig.cluster->LinksByRole("storage")) {
    EXPECT_FALSE(link->degraded());
    EXPECT_FALSE(link->blackholed());
  }
  EXPECT_EQ(injector.cleared(), 1);
}

TEST(FaultInjectorTest, OverlappingBlackholeAndDegradeReleaseInOrder) {
  // A blackhole inside a longer degrade window: when the blackhole clears
  // the link must still be degraded (not reset to clean), and when the
  // degrade clears the link is fully restored.
  Rig rig(SutKind::kCdb1, 1);
  FaultInjector injector(&rig.env, rig.cluster.get());
  injector.Arm(*ParseFaultPlan(
                   "kind=link-degrade,target=link.storage,at=1s,duration=6s,"
                   "magnitude=4;"
                   "kind=link-blackhole,target=link.storage,at=2s,"
                   "duration=1s"),
               sim::SimTime{0});
  std::vector<net::Link*> links = rig.cluster->LinksByRole("storage");
  ASSERT_FALSE(links.empty());
  rig.env.RunUntil(sim::Millis(2500));
  for (net::Link* link : links) {
    EXPECT_TRUE(link->blackholed());
    EXPECT_TRUE(link->degraded());
  }
  rig.env.RunUntil(sim::Seconds(4));
  for (net::Link* link : links) {
    EXPECT_FALSE(link->blackholed());
    EXPECT_TRUE(link->degraded());
  }
  rig.env.RunUntil(sim::Seconds(8));
  for (net::Link* link : links) {
    EXPECT_FALSE(link->blackholed());
    EXPECT_FALSE(link->degraded());
  }
}

// ---------------------------------------------- SUT-side degradation

TEST(DegradationTest, BreakerOpensOnDownRoAndRouteReadSkipsIt) {
  Rig rig(SutKind::kCdb1, 2);
  rig.cluster->EnableDegradation(DegradationPolicy{});
  DegradationController* ctl = rig.cluster->degradation();
  ASSERT_NE(ctl, nullptr);
  rig.env.RunUntil(sim::Seconds(1));
  ComputeNode* ro0 = rig.cluster->ro(0);
  EXPECT_EQ(ctl->StateOf(ro0), DegradationController::BreakerState::kClosed);

  // Node goes down; the next probe opens its breaker.
  ro0->SetAvailable(false);
  rig.env.RunUntil(sim::Seconds(2));
  EXPECT_EQ(ctl->StateOf(ro0), DegradationController::BreakerState::kOpen);

  // Back up, but still inside probation: the breaker stays open and
  // RouteRead keeps routing around it even though the node is available.
  ro0->SetAvailable(true);
  rig.env.RunUntil(sim::Millis(2500));
  EXPECT_EQ(ctl->StateOf(ro0), DegradationController::BreakerState::kOpen);
  for (int i = 0; i < 6; ++i) EXPECT_NE(rig.cluster->RouteRead(), ro0);

  // Probation passes -> half-open probe -> healthy -> closed again.
  rig.env.RunUntil(sim::Seconds(6));
  EXPECT_EQ(ctl->StateOf(ro0), DegradationController::BreakerState::kClosed);
  EXPECT_GE(ctl->breaker_opens(), 1);
  EXPECT_GE(ctl->breaker_closes(), 1);
  bool routed_back = false;
  for (int i = 0; i < 6; ++i) routed_back |= rig.cluster->RouteRead() == ro0;
  EXPECT_TRUE(routed_back);
}

sim::Process TryOneTxn(Cluster* cluster, Status* out) {
  ComputeNode* node = cluster->rw();
  txn::TxnManager& mgr = node->txn();
  storage::SyntheticTable* table = node->tables()->Find("t");
  txn::Transaction txn = mgr.Begin();
  Row row;
  *out = co_await mgr.Get(&txn, table, 7, &row, /*for_update=*/true);
  if (txn.active()) mgr.Abort(&txn);
}

TEST(DegradationTest, SheddingRejectsNewTransactions) {
  Rig rig(SutKind::kAwsRds, 1);
  rig.cluster->rw()->SetShedding(true);
  Status status = Status::OK();
  rig.env.Spawn(TryOneTxn(rig.cluster.get(), &status));
  rig.env.RunUntil(sim::Seconds(1));
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(rig.cluster->rw()->shed_rejects(), 1);
  EXPECT_EQ(rig.cluster->TotalShedRejects(), 1);

  rig.cluster->rw()->SetShedding(false);
  rig.env.Spawn(TryOneTxn(rig.cluster.get(), &status));
  rig.env.RunUntil(sim::Seconds(2));
  EXPECT_TRUE(status.ok());
}

TEST(DegradationTest, FetchDeadlineTimesOutOnBlackholedStorage) {
  Rig rig(SutKind::kCdb1, 1);
  rig.cluster->EnableDegradation(DegradationPolicy{});
  // Shrink the buffer far below the 128 KB table so reads keep missing.
  rig.cluster->rw()->SetBufferBytes(32 << 10);
  bool stop = false;
  int64_t reads = 0;
  Status last = Status::OK();
  for (int w = 0; w < 4; ++w) {
    rig.env.Spawn(Reader(&rig.env, rig.cluster.get(),
                         21 + static_cast<uint64_t>(w), &stop, &reads, &last));
  }
  rig.env.RunUntil(sim::Seconds(1));
  ASSERT_GT(reads, 0);

  for (net::Link* link : rig.cluster->LinksByRole("storage")) {
    link->SetBlackhole(true);
  }
  rig.env.RunUntil(sim::Seconds(3));
  // Misses fail fast with kUnavailable instead of parking forever; the
  // timeout counter feeds the availability report.
  EXPECT_GT(rig.cluster->TotalFetchTimeouts(), 0);
  EXPECT_EQ(last.code(), StatusCode::kUnavailable);

  int64_t reads_at_clear = reads;
  for (net::Link* link : rig.cluster->LinksByRole("storage")) {
    link->SetBlackhole(false);
  }
  rig.env.RunUntil(sim::Seconds(5));
  stop = true;
  rig.env.RunUntil(sim::Seconds(6));
  EXPECT_GT(reads, reads_at_clear);  // service resumed after the clear
}

// ------------------------------------------------------------ determinism

TEST(FaultDeterminismTest, SameSeedSamePlanSameOutcome) {
  auto run = [] {
    Rig rig(SutKind::kCdb1, 2);
    rig.cluster->EnableDegradation(DegradationPolicy{});
    FaultInjector injector(&rig.env, rig.cluster.get());
    injector.Arm(*ParseFaultPlan(
                     "kind=link-degrade,target=link.storage,at=1s,"
                     "duration=3s,magnitude=8;"
                     "kind=crash,target=rw,at=6s"),
                 sim::SimTime{0});
    bool stop = false;
    int64_t committed = 0;
    for (int w = 0; w < 4; ++w) {
      rig.env.Spawn(Worker(&rig.env, rig.cluster.get(),
                           41 + static_cast<uint64_t>(w), &stop, &committed));
    }
    rig.env.RunUntil(sim::Seconds(15));
    stop = true;
    rig.env.RunUntil(sim::Seconds(25));
    return std::make_pair(committed, rig.cluster->canonical()->StateHash());
  };
  std::pair<int64_t, uint64_t> first = run();
  std::pair<int64_t, uint64_t> second = run();
  EXPECT_GT(first.first, 0);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

}  // namespace
}  // namespace cloudybench::fault

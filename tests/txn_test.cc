// Tests for the transaction layer: lock manager semantics (S/X, FIFO,
// upgrades, timeout deadlock-breaking) and the 2PL transaction manager
// (ACID behaviours, read-your-writes, commit/abort) over a fake engine.

#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "sim/environment.h"
#include "sim/pool.h"
#include "storage/synthetic_table.h"
#include "util/random.h"
#include "txn/engine.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"

namespace cloudybench::txn {
namespace {

using storage::Row;
using storage::SyntheticTable;
using storage::TableSchema;
using util::Status;

// ------------------------------------------------------------ LockManager

struct LockFixture {
  sim::Environment env;
  LockManager locks{&env, sim::Seconds(1)};
};

sim::Process TakeLock(LockManager* lm, int64_t txn, TableKey key,
                      LockMode mode, Status* out, double* at,
                      sim::Environment* env) {
  *out = co_await lm->Lock(txn, key, mode);
  *at = env->Now().ToSeconds();
}

TEST(LockManagerTest, SharedLocksCoexist) {
  LockFixture f;
  Status s1, s2;
  double t1 = 0, t2 = 0;
  TableKey k{0, 5};
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kShared, &s1, &t1, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 2, k, LockMode::kShared, &s2, &t2, &f.env));
  f.env.Run();
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
  EXPECT_DOUBLE_EQ(t1, 0.0);
  EXPECT_DOUBLE_EQ(t2, 0.0);
  EXPECT_TRUE(f.locks.Holds(1, k, LockMode::kShared));
  EXPECT_FALSE(f.locks.Holds(1, k, LockMode::kExclusive));
}

TEST(LockManagerTest, ExclusiveBlocksUntilRelease) {
  LockFixture f;
  Status s1, s2;
  double t1 = 0, t2 = 0;
  TableKey k{0, 5};
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &s1, &t1, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 2, k, LockMode::kExclusive, &s2, &t2, &f.env));
  f.env.ScheduleCall(sim::Millis(100), [&] { f.locks.Release(1, k); });
  f.env.Run();
  EXPECT_TRUE(s2.ok());
  EXPECT_DOUBLE_EQ(t2, 0.1);
  EXPECT_EQ(f.locks.waits(), 1);
}

TEST(LockManagerTest, WaitTimesOutAndAborts) {
  LockFixture f;
  Status s1, s2;
  double t1 = 0, t2 = 0;
  TableKey k{0, 5};
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &s1, &t1, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 2, k, LockMode::kShared, &s2, &t2, &f.env));
  f.env.Run();  // holder never releases
  EXPECT_TRUE(s2.IsAborted());
  EXPECT_DOUBLE_EQ(t2, 1.0);  // the configured timeout
  EXPECT_EQ(f.locks.timeouts(), 1);
}

TEST(LockManagerTest, ImmediateGrantsHappenAtTheCallWithoutAFrame) {
  LockFixture f;
  TableKey k{0, 5};
  sim::FrameArena::Stats before = sim::FrameArena::ThreadStats();
  // (1) A new entry.
  sim::FastCall<Status> fresh = f.locks.Lock(1, k, LockMode::kShared);
  ASSERT_TRUE(fresh.ready());
  EXPECT_TRUE(f.locks.Holds(1, k, LockMode::kShared));  // at the call
  EXPECT_TRUE(fresh.await_resume().ok());
  // (2) A lock already held (S again, then X covering S).
  sim::FastCall<Status> again = f.locks.Lock(1, k, LockMode::kShared);
  ASSERT_TRUE(again.ready());
  EXPECT_TRUE(again.await_resume().ok());
  // (3) A compatible grant with nobody queued. A trace track only labels a
  // queued wait, so a traced request is granted at the call too.
  sim::FastCall<Status> shared =
      f.locks.Lock(2, k, LockMode::kShared, /*trace_track=*/7);
  ASSERT_TRUE(shared.ready());
  EXPECT_TRUE(f.locks.Holds(2, k, LockMode::kShared));
  EXPECT_TRUE(shared.await_resume().ok());
  // An upgrade by the sole holder is a compatible grant too.
  TableKey k2{0, 6};
  ASSERT_TRUE(f.locks.Lock(3, k2, LockMode::kShared).ready());
  sim::FastCall<Status> upgrade = f.locks.Lock(3, k2, LockMode::kExclusive);
  ASSERT_TRUE(upgrade.ready());
  EXPECT_TRUE(f.locks.Holds(3, k2, LockMode::kExclusive));
  EXPECT_TRUE(upgrade.await_resume().ok());
  sim::FastCall<Status> held_x = f.locks.Lock(3, k2, LockMode::kShared);
  ASSERT_TRUE(held_x.ready());
  EXPECT_TRUE(held_x.await_resume().ok());
  sim::FrameArena::Stats after = sim::FrameArena::ThreadStats();
  EXPECT_EQ(after.fresh + after.reused, before.fresh + before.reused);
  EXPECT_EQ(f.locks.grants(), 4);
  EXPECT_EQ(f.locks.waits(), 0);
  EXPECT_EQ(f.env.dispatched_events(), 0u);  // nothing was scheduled

  // A conflicting request still queues, and times out as before.
  Status s;
  double t = -1;
  f.env.Spawn(TakeLock(&f.locks, 4, k, LockMode::kExclusive, &s, &t, &f.env));
  EXPECT_EQ(f.locks.waits(), 1);
  EXPECT_FALSE(f.locks.Holds(4, k, LockMode::kExclusive));
  f.env.Run();
  EXPECT_TRUE(s.IsAborted());
  EXPECT_DOUBLE_EQ(t, 1.0);
  EXPECT_EQ(f.locks.timeouts(), 1);
}

TEST(LockManagerTest, ReacquisitionIsNoOp) {
  LockFixture f;
  Status s1, s2, s3;
  double t = 0;
  TableKey k{0, 5};
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &s1, &t, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &s2, &t, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kShared, &s3, &t, &f.env));
  f.env.Run();
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
  EXPECT_TRUE(s3.ok());  // X covers S
  EXPECT_EQ(f.locks.waits(), 0);
}

TEST(LockManagerTest, UpgradeGrantedWhenSoleHolder) {
  LockFixture f;
  Status s1, s2;
  double t1 = 0, t2 = 0;
  TableKey k{0, 5};
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kShared, &s1, &t1, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &s2, &t2, &f.env));
  f.env.Run();
  EXPECT_TRUE(s2.ok());
  EXPECT_DOUBLE_EQ(t2, 0.0);
  EXPECT_TRUE(f.locks.Holds(1, k, LockMode::kExclusive));
}

TEST(LockManagerTest, UpgradeWaitsForOtherSharersThenJumpsQueue) {
  LockFixture f;
  Status s_a, s_b, s_up, s_x;
  double t_a = 0, t_b = 0, t_up = 0, t_x = 0;
  TableKey k{0, 5};
  // txn1 and txn2 hold S; txn3 queues for X; then txn1 upgrades.
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kShared, &s_a, &t_a, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 2, k, LockMode::kShared, &s_b, &t_b, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 3, k, LockMode::kExclusive, &s_x, &t_x, &f.env));
  f.env.ScheduleCall(sim::Millis(10), [&] {
    f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &s_up, &t_up, &f.env));
  });
  // txn2 releases at 100ms -> upgrade grants (ahead of txn3's X).
  f.env.ScheduleCall(sim::Millis(100), [&] { f.locks.Release(2, k); });
  // txn1 releases fully at 200ms -> txn3 finally gets X.
  f.env.ScheduleCall(sim::Millis(200), [&] { f.locks.Release(1, k); });
  f.env.Run();
  EXPECT_TRUE(s_up.ok());
  EXPECT_DOUBLE_EQ(t_up, 0.1);
  EXPECT_TRUE(s_x.ok());
  EXPECT_DOUBLE_EQ(t_x, 0.2);
}

TEST(LockManagerTest, UpgradeDeadlockBrokenByTimeout) {
  LockFixture f;
  Status s1, s2, up1, up2;
  double t = 0, t_up1 = 0, t_up2 = 0;
  TableKey k{0, 5};
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kShared, &s1, &t, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 2, k, LockMode::kShared, &s2, &t, &f.env));
  // Both upgrade (staggered): classic deadlock; the timeout must break it.
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &up1, &t_up1, &f.env));
  f.env.ScheduleCall(sim::Millis(50), [&] {
    f.env.Spawn(TakeLock(&f.locks, 2, k, LockMode::kExclusive, &up2, &t_up2, &f.env));
  });
  // Simulate the timed-out transaction aborting and releasing its S hold.
  f.env.ScheduleCall(sim::Millis(1001), [&] {
    if (up1.IsAborted()) f.locks.Release(1, k);
  });
  f.env.Run();
  // txn1's upgrade times out at 1s; once it aborts and releases, txn2's
  // upgrade becomes grantable (before its own 1.05s deadline).
  EXPECT_TRUE(up1.IsAborted());
  EXPECT_TRUE(up2.ok());
  EXPECT_NEAR(t_up2, 1.001, 1e-9);
}

TEST(LockManagerTest, QueuedRequestsGrantInFifoOrder) {
  LockFixture f;
  TableKey k{0, 9};
  Status s0, s1, s2;
  double t0 = 0, t1 = 0, t2 = 0;
  f.env.Spawn(TakeLock(&f.locks, 1, k, LockMode::kExclusive, &s0, &t0, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 2, k, LockMode::kExclusive, &s1, &t1, &f.env));
  f.env.Spawn(TakeLock(&f.locks, 3, k, LockMode::kExclusive, &s2, &t2, &f.env));
  f.env.ScheduleCall(sim::Millis(10), [&] { f.locks.Release(1, k); });
  f.env.ScheduleCall(sim::Millis(20), [&] { f.locks.Release(2, k); });
  f.env.Run();
  EXPECT_DOUBLE_EQ(t1, 0.01);
  EXPECT_DOUBLE_EQ(t2, 0.02);
}

TEST(LockManagerTest, EntriesAreReclaimedWhenFree) {
  LockFixture f;
  Status s;
  double t = 0;
  f.env.Spawn(TakeLock(&f.locks, 1, {0, 1}, LockMode::kExclusive, &s, &t, &f.env));
  f.env.Run();
  EXPECT_EQ(f.locks.locked_keys(), 1u);
  f.locks.Release(1, {0, 1});
  EXPECT_EQ(f.locks.locked_keys(), 0u);
}

// ------------------------------------------------------------- TxnManager

/// Fake engine: instant CPU/pages, direct WAL-free commit, controllable
/// availability. Isolates TxnManager logic from the cloud substrate.
class FakeEngine : public Engine {
 public:
  explicit FakeEngine(sim::Environment* env)
      : env_(env), locks_(env, sim::Seconds(1)) {}

  sim::Environment* env() override { return env_; }
  storage::TableSet* tables() override { return &tables_; }
  LockManager* lock_manager() override { return &locks_; }
  bool available() const override { return available_; }

  // Frameless, like a compute node's free CPU slot and buffer hit: a CPU
  // charge is one scheduled resume, a page access finishes at the call.
  sim::FastCall<void> ChargeCpu(sim::SimTime demand) override {
    cpu_charged_ += demand.us;
    return sim::FastCall<void>::ResumeAt(env_->Now() + demand);
  }

  sim::FastCall<util::Status> AccessPage(storage::PageId page,
                                         bool) override {
    ++page_accesses_;
    (void)page;
    if (!available_) return Status::Unavailable("down");
    return Status::OK();
  }

  sim::Task<util::Status> CommitRecords(
      const std::vector<storage::LogRecord>* records) override {
    committed_records_ += static_cast<int64_t>(records->size());
    if (!available_) co_return Status::Unavailable("down");
    co_await env_->Delay(sim::Micros(100));  // pretend log force
    co_return Status::OK();
  }

  sim::Environment* env_;
  storage::TableSet tables_;
  LockManager locks_;
  bool available_ = true;
  int64_t cpu_charged_ = 0;
  int64_t page_accesses_ = 0;
  int64_t committed_records_ = 0;
};

TableSchema OrdersSchema() {
  TableSchema s;
  s.name = "orders";
  s.base_rows_per_sf = 1000;
  s.row_bytes = 64;
  s.generator = [](int64_t key) {
    Row r;
    r.key = key;
    r.amount = 100.0;
    r.status = 0;
    return r;
  };
  return s;
}

struct TxnFixture {
  TxnFixture() {
    orders = fake.tables_.Create(OrdersSchema(), 1);
    mgr = std::make_unique<TxnManager>(&fake, CpuCosts{});
  }
  sim::Environment env;
  FakeEngine fake{&env};
  SyntheticTable* orders = nullptr;
  std::unique_ptr<TxnManager> mgr;
};

sim::Process ReadCommit(TxnManager* mgr, SyntheticTable* t, int64_t key,
                        Status* read_status, Row* out, Status* commit_status) {
  Transaction txn = mgr->Begin();
  *read_status = co_await mgr->Get(&txn, t, key, out);
  if (txn.active()) {
    *commit_status = co_await mgr->Commit(&txn);
  }
}

TEST(TxnManagerTest, ReadCommittedRow) {
  TxnFixture f;
  Status rs, cs;
  Row row;
  f.env.Spawn(ReadCommit(f.mgr.get(), f.orders, 7, &rs, &row, &cs));
  f.env.Run();
  EXPECT_TRUE(rs.ok());
  EXPECT_TRUE(cs.ok());
  EXPECT_EQ(row.key, 7);
  EXPECT_EQ(f.mgr->commits(), 1);
  EXPECT_EQ(f.fake.committed_records_, 0);  // read-only: no log force
  EXPECT_EQ(f.mgr->active_txns(), 0);
}

TEST(TxnManagerTest, ReadMissingKeyIsNotFoundAndTxnContinues) {
  TxnFixture f;
  Status rs, cs;
  Row row;
  f.env.Spawn(ReadCommit(f.mgr.get(), f.orders, 99999, &rs, &row, &cs));
  f.env.Run();
  EXPECT_TRUE(rs.IsNotFound());
  EXPECT_TRUE(cs.ok());  // txn stays usable after NotFound
}

sim::Process UpdateCommit(TxnManager* mgr, SyntheticTable* t, int64_t key,
                          double new_amount, Status* out) {
  Transaction txn = mgr->Begin();
  Row row;
  Status s = co_await mgr->Get(&txn, t, key, &row, /*for_update=*/true);
  if (!s.ok()) {
    *out = s;
    co_return;
  }
  row.amount = new_amount;
  s = co_await mgr->Update(&txn, t, row);
  if (!s.ok()) {
    *out = s;
    co_return;
  }
  *out = co_await mgr->Commit(&txn);
}

TEST(TxnManagerTest, UpdateIsDurableAfterCommit) {
  TxnFixture f;
  Status s;
  f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 5, 42.0, &s));
  f.env.Run();
  EXPECT_TRUE(s.ok());
  EXPECT_DOUBLE_EQ(f.orders->Get(5)->amount, 42.0);
  EXPECT_EQ(f.fake.committed_records_, 2);  // update + commit record
}

sim::Process InsertAbort(TxnManager* mgr, SyntheticTable* t, Status* out) {
  Transaction txn = mgr->Begin();
  Row row;
  row.key = t->AllocateKey();
  row.amount = 1.0;
  *out = co_await mgr->Insert(&txn, t, row);
  mgr->Abort(&txn);
}

TEST(TxnManagerTest, AbortDiscardsWrites) {
  TxnFixture f;
  Status s;
  int64_t before = f.orders->live_rows();
  f.env.Spawn(InsertAbort(f.mgr.get(), f.orders, &s));
  f.env.Run();
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(f.orders->live_rows(), before);  // atomicity
  EXPECT_EQ(f.mgr->aborts(), 1);
  EXPECT_EQ(f.mgr->commits(), 0);
}

sim::Process ReadYourWrites(TxnManager* mgr, SyntheticTable* t, bool* saw_own,
                            Status* out) {
  Transaction txn = mgr->Begin();
  Row row;
  Status s = co_await mgr->Get(&txn, t, 3, &row, /*for_update=*/true);
  CB_CHECK_OK(s);
  row.amount = 777.0;
  CB_CHECK_OK(co_await mgr->Update(&txn, t, row));
  Row again;
  CB_CHECK_OK(co_await mgr->Get(&txn, t, 3, &again));
  *saw_own = again.amount == 777.0;
  // Delete it, then a read must say NotFound.
  CB_CHECK_OK(co_await mgr->Delete(&txn, t, 3));
  Row gone;
  Status after_delete = co_await mgr->Get(&txn, t, 3, &gone);
  *out = after_delete;
  CB_CHECK_OK(co_await mgr->Commit(&txn));
}

TEST(TxnManagerTest, ReadYourOwnWritesAndDeletes) {
  TxnFixture f;
  bool saw_own = false;
  Status after_delete;
  f.env.Spawn(ReadYourWrites(f.mgr.get(), f.orders, &saw_own, &after_delete));
  f.env.Run();
  EXPECT_TRUE(saw_own);
  EXPECT_TRUE(after_delete.IsNotFound());
  EXPECT_FALSE(f.orders->Exists(3));  // delete applied at commit
}

TEST(TxnManagerTest, WriteConflictSerializes) {
  TxnFixture f;
  Status s1, s2;
  f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 5, 1.0, &s1));
  f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 5, 2.0, &s2));
  f.env.Run();
  EXPECT_TRUE(s1.ok());
  EXPECT_TRUE(s2.ok());
  // Second writer won (FIFO): final value is 2.0.
  EXPECT_DOUBLE_EQ(f.orders->Get(5)->amount, 2.0);
  EXPECT_EQ(f.fake.locks_.waits(), 1);
}

TEST(TxnManagerTest, InsertDuplicateKeyFails) {
  TxnFixture f;
  Status s;
  f.env.Spawn([](TxnManager* mgr, SyntheticTable* t, Status* out) -> sim::Process {
    Transaction txn = mgr->Begin();
    Row row;
    row.key = 5;  // base row exists
    *out = co_await mgr->Insert(&txn, t, row);
    mgr->Abort(&txn);
  }(f.mgr.get(), f.orders, &s));
  f.env.Run();
  EXPECT_EQ(s.code(), util::StatusCode::kAlreadyExists);
}

TEST(TxnManagerTest, UnavailableEngineFailsOperations) {
  TxnFixture f;
  f.fake.available_ = false;
  Status rs, cs;
  Row row;
  f.env.Spawn(ReadCommit(f.mgr.get(), f.orders, 7, &rs, &row, &cs));
  f.env.Run();
  EXPECT_TRUE(rs.IsUnavailable());
  EXPECT_EQ(f.mgr->aborts(), 1);
  EXPECT_EQ(f.mgr->active_txns(), 0);
}

TEST(TxnManagerTest, LockTimeoutAbortsTransaction) {
  TxnFixture f;
  Status blocker_status, victim_status;
  double t = 0;
  // Blocker holds X on key 5 forever (never commits).
  f.env.Spawn(TakeLock(&f.fake.locks_, 9999, TableKey{f.orders->id(), 5},
                       LockMode::kExclusive, &blocker_status, &t, &f.env));
  f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 5, 1.0, &victim_status));
  f.env.Run();
  EXPECT_TRUE(victim_status.IsAborted());
  EXPECT_EQ(f.mgr->aborts(), 1);
}

TEST(TxnManagerTest, ChargesCpuAndPagesPerOperation) {
  TxnFixture f;
  Status s;
  f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 5, 1.0, &s));
  f.env.Run();
  EXPECT_TRUE(s.ok());
  // Get + Update + commit CPU charges.
  EXPECT_EQ(f.fake.cpu_charged_, 18 + 28 + 20);
  EXPECT_EQ(f.fake.page_accesses_, 2);
}

// ----------------------------------------------- Lock-table property tests

/// The pre-flattening map-based lock manager, kept verbatim as an
/// executable reference model. The property tests below drive it and the
/// production flat-table LockManager through the same 100k-op random
/// schedule on twin environments and require *identical* observable
/// behaviour: per-op outcome, grant time, counters, and final holder sets.
/// Matching grant times is a stronger property than mere correctness —
/// wake order feeds event sequence numbers, so this doubles as a check
/// that the flat rewrite preserved the deterministic schedule.
class ReferenceLockManager {
 public:
  ReferenceLockManager(sim::Environment* env, sim::SimTime wait_timeout)
      : env_(env), wait_timeout_(wait_timeout) {}

  sim::Task<util::Status> Lock(int64_t txn_id, TableKey key, LockMode mode) {
    LockEntry& entry = locks_[key];
    auto held = entry.holders.find(txn_id);
    bool holds_any = held != entry.holders.end();
    if (holds_any) {
      if (held->second == LockMode::kExclusive || mode == LockMode::kShared) {
        co_return util::Status::OK();  // already sufficient
      }
    }
    bool upgrade = holds_any && mode == LockMode::kExclusive;

    if ((upgrade || entry.queue.empty()) &&
        GrantableNow(entry, txn_id, mode, upgrade)) {
      AddHolder(entry, txn_id, mode);
      co_return util::Status::OK();
    }

    ++waits_;
    sim::Waiter waiter(env_);
    uint64_t node_id = next_node_id_++;
    WaitNode node{node_id, txn_id, mode, upgrade, &waiter};
    if (upgrade) {
      entry.queue.push_front(node);
    } else {
      entry.queue.push_back(node);
    }
    env_->ScheduleCall(env_->Now() + wait_timeout_,
                       [this, key, node_id] { CancelWait(key, node_id); });

    int outcome = co_await waiter;
    if (outcome == kGranted) co_return util::Status::OK();
    ++timeouts_;
    co_return util::Status::Aborted("lock wait timeout");
  }

  void Release(int64_t txn_id, TableKey key) {
    auto it = locks_.find(key);
    if (it == locks_.end()) return;
    it->second.holders.erase(txn_id);
    GrantFromQueue(key, it->second);
  }

  void ReleaseAll(int64_t txn_id, const std::vector<TableKey>& keys) {
    for (const TableKey& key : keys) Release(txn_id, key);
  }

  bool Holds(int64_t txn_id, TableKey key, LockMode mode) const {
    auto it = locks_.find(key);
    if (it == locks_.end()) return false;
    auto held = it->second.holders.find(txn_id);
    if (held == it->second.holders.end()) return false;
    return mode == LockMode::kShared || held->second == LockMode::kExclusive;
  }

  int64_t grants() const { return grants_; }
  int64_t waits() const { return waits_; }
  int64_t timeouts() const { return timeouts_; }
  size_t locked_keys() const { return locks_.size(); }

 private:
  enum WaitOutcome { kGranted = 1, kTimedOut = 2 };

  struct WaitNode {
    uint64_t id = 0;
    int64_t txn = 0;
    LockMode mode = LockMode::kShared;
    bool upgrade = false;
    sim::Waiter* waiter = nullptr;
  };
  struct LockEntry {
    std::unordered_map<int64_t, LockMode> holders;
    std::deque<WaitNode> queue;
  };

  bool GrantableNow(const LockEntry& entry, int64_t txn, LockMode mode,
                    bool upgrade) const {
    if (upgrade) {
      return entry.holders.size() == 1 && entry.holders.count(txn) == 1;
    }
    if (entry.holders.empty()) return true;
    if (mode == LockMode::kExclusive) return false;
    for (const auto& [holder, held_mode] : entry.holders) {
      if (held_mode == LockMode::kExclusive) return false;
    }
    return true;
  }

  void AddHolder(LockEntry& entry, int64_t txn, LockMode mode) {
    auto it = entry.holders.find(txn);
    if (it == entry.holders.end()) {
      entry.holders.emplace(txn, mode);
    } else if (mode == LockMode::kExclusive) {
      it->second = LockMode::kExclusive;
    }
    ++grants_;
  }

  void GrantFromQueue(const TableKey& key, LockEntry& entry) {
    while (!entry.queue.empty()) {
      WaitNode& front = entry.queue.front();
      if (!GrantableNow(entry, front.txn, front.mode, front.upgrade)) break;
      WaitNode node = front;
      entry.queue.pop_front();
      AddHolder(entry, node.txn, node.mode);
      node.waiter->Complete(kGranted);
      if (node.mode == LockMode::kExclusive) break;
    }
    if (entry.holders.empty() && entry.queue.empty()) {
      locks_.erase(key);
    }
  }

  void CancelWait(TableKey key, uint64_t node_id) {
    auto it = locks_.find(key);
    if (it == locks_.end()) return;
    auto& queue = it->second.queue;
    for (auto qit = queue.begin(); qit != queue.end(); ++qit) {
      if (qit->id == node_id) {
        sim::Waiter* waiter = qit->waiter;
        queue.erase(qit);
        waiter->Complete(kTimedOut);
        GrantFromQueue(key, it->second);
        return;
      }
    }
  }

  sim::Environment* env_;
  sim::SimTime wait_timeout_;
  uint64_t next_node_id_ = 1;
  int64_t grants_ = 0;
  int64_t waits_ = 0;
  int64_t timeouts_ = 0;
  std::unordered_map<TableKey, LockEntry, TableKeyHash> locks_;
};

struct LockOpLog {
  std::vector<uint8_t> ok;
  std::vector<int64_t> at_us;
};

/// One simulated transaction worker: `ops` random lock requests with
/// interleaved releases, partial releases, release-all batches and time
/// advances. All randomness comes from a per-txn PCG stream seeded only by
/// the txn id, so two runs (against different lock manager implementations)
/// draw identical schedules as long as the managers behave identically.
template <typename LM>
sim::Process LockPropertyTxn(LM* lm, sim::Environment* env, int64_t txn,
                             int ops, bool contended, LockOpLog* log, int base,
                             std::vector<TableKey>* held) {
  util::Pcg32 rng(0xA11D00DULL, static_cast<uint64_t>(txn));
  for (int i = 0; i < ops; ++i) {
    int64_t key = contended
                      ? static_cast<int64_t>(rng.NextBounded(32))
                      : txn * 1024 + static_cast<int64_t>(rng.NextBounded(64));
    LockMode mode =
        rng.NextBounded(10) < 7 ? LockMode::kShared : LockMode::kExclusive;
    util::Status s = co_await lm->Lock(txn, TableKey{0, key}, mode);
    log->ok[static_cast<size_t>(base + i)] = s.ok() ? 1 : 0;
    log->at_us[static_cast<size_t>(base + i)] = env->Now().us;
    if (s.ok()) held->push_back(TableKey{0, key});
    uint32_t act = rng.NextBounded(16);
    if (act == 0 && !held->empty()) {
      size_t idx = rng.NextBounded(static_cast<uint32_t>(held->size()));
      lm->Release(txn, (*held)[idx]);
      held->erase(held->begin() + static_cast<ptrdiff_t>(idx));
    } else if (act == 1) {
      // Possibly-not-held release: must be a harmless no-op.
      int64_t loose = contended ? static_cast<int64_t>(rng.NextBounded(32))
                                : txn * 1024 +
                                      static_cast<int64_t>(rng.NextBounded(64));
      lm->Release(txn, TableKey{0, loose});
    } else if (act == 2) {
      lm->ReleaseAll(txn, *held);
      held->clear();
    }
    if (rng.NextBounded(8) == 0) {
      co_await env->Delay(sim::Micros(1 + rng.NextBounded(40)));
    }
  }
  // Locks still held at the end stay held: the final Holds() grid is part
  // of the cross-implementation comparison.
}

struct LockPropertyResult {
  LockOpLog log;
  int64_t grants = 0;
  int64_t waits = 0;
  int64_t timeouts = 0;
  size_t locked = 0;
  int64_t end_us = 0;
  std::vector<uint8_t> holds;  // (txn x key x {S,X}) grid at end of run
};

template <typename LM>
LockPropertyResult RunLockProperty(bool contended) {
  constexpr int kTxns = 8;
  constexpr int kOpsPerTxn = 12500;  // 100k lock requests total
  sim::Environment env;
  LM lm(&env, sim::Micros(300));
  LockPropertyResult r;
  r.log.ok.assign(kTxns * kOpsPerTxn, 0);
  r.log.at_us.assign(kTxns * kOpsPerTxn, 0);
  std::vector<std::vector<TableKey>> held(kTxns);
  for (int t = 0; t < kTxns; ++t) {
    env.Spawn(LockPropertyTxn(&lm, &env, t + 1, kOpsPerTxn, contended, &r.log,
                              t * kOpsPerTxn, &held[static_cast<size_t>(t)]));
  }
  env.Run();
  r.grants = lm.grants();
  r.waits = lm.waits();
  r.timeouts = lm.timeouts();
  r.locked = lm.locked_keys();
  r.end_us = env.Now().us;
  int64_t key_hi = contended ? 32 : kTxns * 1024 + 64;
  for (int t = 1; t <= kTxns; ++t) {
    for (int64_t k = 0; k < key_hi; ++k) {
      r.holds.push_back(lm.Holds(t, TableKey{0, k}, LockMode::kShared) ? 1 : 0);
      r.holds.push_back(lm.Holds(t, TableKey{0, k}, LockMode::kExclusive) ? 1
                                                                          : 0);
    }
  }
  return r;
}

template <typename T>
void ExpectSameSequence(const std::vector<T>& got, const std::vector<T>& want,
                        const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], want[i]) << what << " diverges at index " << i;
  }
}

TEST(LockManagerPropertyTest, ContendedScheduleMatchesReferenceModel) {
  LockPropertyResult flat = RunLockProperty<LockManager>(true);
  LockPropertyResult ref = RunLockProperty<ReferenceLockManager>(true);
  ExpectSameSequence(flat.log.ok, ref.log.ok, "op outcome");
  ExpectSameSequence(flat.log.at_us, ref.log.at_us, "grant time");
  ExpectSameSequence(flat.holds, ref.holds, "final holder grid");
  EXPECT_EQ(flat.grants, ref.grants);
  EXPECT_EQ(flat.waits, ref.waits);
  EXPECT_EQ(flat.timeouts, ref.timeouts);
  EXPECT_EQ(flat.locked, ref.locked);
  EXPECT_EQ(flat.end_us, ref.end_us);
  // The schedule must actually exercise the interesting paths.
  EXPECT_GT(flat.waits, 0);
  EXPECT_GT(flat.grants, 0);
}

TEST(LockManagerPropertyTest, UncontendedScheduleMatchesReferenceModel) {
  LockPropertyResult flat = RunLockProperty<LockManager>(false);
  LockPropertyResult ref = RunLockProperty<ReferenceLockManager>(false);
  ExpectSameSequence(flat.log.ok, ref.log.ok, "op outcome");
  ExpectSameSequence(flat.log.at_us, ref.log.at_us, "grant time");
  ExpectSameSequence(flat.holds, ref.holds, "final holder grid");
  EXPECT_EQ(flat.grants, ref.grants);
  EXPECT_EQ(flat.locked, ref.locked);
  EXPECT_EQ(flat.end_us, ref.end_us);
  // Disjoint per-txn key ranges: nothing ever blocks or times out.
  EXPECT_EQ(flat.waits, 0);
  EXPECT_EQ(flat.timeouts, 0);
  for (uint8_t ok : flat.log.ok) EXPECT_EQ(ok, 1);
}

// --------------------------------------------------- TxnBook / frame pools

TEST(TxnBookPoolTest, AcquireReleaseRecyclesLifoKeepingCapacity) {
  TxnBook* a = TxnBookPool::Acquire();
  TxnBook* b = TxnBookPool::Acquire();
  EXPECT_NE(a, b);
  a->held_locks.push_back(TableKey{0, 1});
  a->writes.push_back({storage::LogRecordType::kUpdate, 0, 1, Row{}});
  a->records.push_back(storage::LogRecord{});
  size_t write_cap = a->writes.capacity();
  TxnBookPool::Release(a);
  // LIFO reuse: the most recently released book comes back first, with its
  // contents dropped but its vector capacity retained.
  TxnBook* c = TxnBookPool::Acquire();
  EXPECT_EQ(c, a);
  EXPECT_TRUE(c->held_locks.empty());
  EXPECT_TRUE(c->writes.empty());
  EXPECT_TRUE(c->records.empty());
  EXPECT_GE(c->writes.capacity(), write_cap);
  TxnBookPool::Release(c);
  TxnBookPool::Release(b);
}

TEST(TxnBookPoolTest, SequentialTransactionsReuseOneBook) {
  TxnFixture f;
  // Warm up: the first transaction may allocate the book fresh.
  Status warm;
  f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 1, 1.0, &warm));
  f.env.Run();
  ASSERT_TRUE(warm.ok());

  constexpr int kTxnCount = 50;
  TxnBookPool::Stats before = TxnBookPool::ThreadStats();
  for (int i = 0; i < kTxnCount; ++i) {
    Status s;
    f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 1 + i % 8, 2.0, &s));
    f.env.Run();
    ASSERT_TRUE(s.ok());
  }
  TxnBookPool::Stats after = TxnBookPool::ThreadStats();
  // Steady state: every txn reuses the one pooled book and recycles it —
  // zero fresh TxnBook allocations.
  EXPECT_EQ(after.fresh, before.fresh);
  EXPECT_EQ(after.reused - before.reused, static_cast<size_t>(kTxnCount));
  EXPECT_EQ(after.recycled - before.recycled, static_cast<size_t>(kTxnCount));
}

TEST(TxnBookPoolTest, ConcurrentTransactionsHoldDistinctBooks) {
  TxnFixture f;
  TxnBookPool::Stats before = TxnBookPool::ThreadStats();
  {
    Transaction t1 = f.mgr->Begin();
    Transaction t2 = f.mgr->Begin();
    Transaction t3 = f.mgr->Begin();
    // Three live txns need three distinct books (pool can satisfy at most
    // whatever it has; the rest are fresh).
    TxnBookPool::Stats live = TxnBookPool::ThreadStats();
    EXPECT_EQ((live.fresh - before.fresh) + (live.reused - before.reused), 3u);
    f.mgr->Abort(&t1);
    f.mgr->Abort(&t2);
    f.mgr->Abort(&t3);
  }
  TxnBookPool::Stats after = TxnBookPool::ThreadStats();
  EXPECT_EQ(after.recycled - before.recycled, 3u);
}

size_t FramesAllocated(const sim::FrameArena::Stats& before) {
  sim::FrameArena::Stats after = sim::FrameArena::ThreadStats();
  return (after.fresh + after.reused) - (before.fresh + before.reused);
}

TEST(FrameArenaTest, UncontendedTransactionsAllocateExactFrameCounts) {
  TxnFixture f;
  // Read-only: the ReadCommit process and TxnManager::Get. The CPU charge
  // (one scheduled resume), the lock grant, the page access and the
  // read-only commit all finish without a frame.
  Status rs, cs;
  Row row;
  sim::FrameArena::Stats before = sim::FrameArena::ThreadStats();
  f.env.Spawn(ReadCommit(f.mgr.get(), f.orders, 7, &rs, &row, &cs));
  f.env.Run();
  ASSERT_TRUE(rs.ok());
  ASSERT_TRUE(cs.ok());
  EXPECT_EQ(FramesAllocated(before), 2u);

  // Write: the UpdateCommit process, Get, Update, the write commit and the
  // engine's CommitRecords; the commit's CPU charge needs no frame.
  Status us;
  before = sim::FrameArena::ThreadStats();
  f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 3, 9.0, &us));
  f.env.Run();
  ASSERT_TRUE(us.ok());
  EXPECT_EQ(FramesAllocated(before), 5u);
}

TEST(FrameArenaTest, SteadyStateTransactionsAllocateNoNewFrames) {
  TxnFixture f;
  // Warm up every coroutine frame size class this workload touches.
  for (int i = 0; i < 3; ++i) {
    Status s;
    f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 1, 1.0, &s));
    f.env.Run();
    ASSERT_TRUE(s.ok());
  }
  sim::FrameArena::Stats before = sim::FrameArena::ThreadStats();
  for (int i = 0; i < 100; ++i) {
    Status s;
    f.env.Spawn(UpdateCommit(f.mgr.get(), f.orders, 1 + i % 8, 3.0, &s));
    f.env.Run();
    ASSERT_TRUE(s.ok());
  }
  sim::FrameArena::Stats after = sim::FrameArena::ThreadStats();
  // Every coroutine frame in the steady-state begin/commit cycle comes from
  // the arena's free lists: no fresh blocks.
  EXPECT_EQ(after.fresh, before.fresh);
  EXPECT_GT(after.reused, before.reused);
}

}  // namespace
}  // namespace cloudybench::txn

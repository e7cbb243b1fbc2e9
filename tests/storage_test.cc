// Tests for the storage substrate: synthetic tables, buffer pool, disk
// device, and the group-commit WAL. Also covers the net module's Link.

#include <algorithm>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "net/network.h"
#include "sim/environment.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"
#include "util/random.h"

namespace cloudybench::storage {
namespace {

TableSchema TestSchema(std::string name, int64_t rows_per_sf,
                       int32_t row_bytes = 64) {
  TableSchema s;
  s.name = std::move(name);
  s.base_rows_per_sf = rows_per_sf;
  s.row_bytes = row_bytes;
  s.generator = [](int64_t key) {
    Row r;
    r.key = key;
    r.ref_a = key * 2;
    r.amount = static_cast<double>(key) * 0.5;
    return r;
  };
  return s;
}

// -------------------------------------------------------- SyntheticTable

TEST(SyntheticTableTest, BaseRowsComeFromGenerator) {
  SyntheticTable t(TestSchema("orders", 1000), 1);
  EXPECT_EQ(t.base_count(), 1000);
  EXPECT_EQ(t.live_rows(), 1000);
  std::optional<Row> row = t.Get(7);
  ASSERT_TRUE(row.has_value());
  EXPECT_EQ(row->key, 7);
  EXPECT_EQ(row->ref_a, 14);
  EXPECT_FALSE(t.Get(1000).has_value());
  EXPECT_FALSE(t.Get(-1).has_value());
}

TEST(SyntheticTableTest, ScaleFactorMultipliesBase) {
  SyntheticTable t(TestSchema("orders", 1000), 10);
  EXPECT_EQ(t.base_count(), 10000);
  EXPECT_TRUE(t.Exists(9999));
  EXPECT_FALSE(t.Exists(10000));
}

TEST(SyntheticTableTest, InsertUpdateDeleteLifecycle) {
  SyntheticTable t(TestSchema("orders", 100), 1);
  int64_t key = t.AllocateKey();
  EXPECT_EQ(key, 100);

  Row row;
  row.key = key;
  row.amount = 9.5;
  ASSERT_TRUE(t.Insert(row).ok());
  EXPECT_EQ(t.live_rows(), 101);
  EXPECT_TRUE(t.Insert(row).code() == util::StatusCode::kAlreadyExists);

  row.amount = 11.0;
  ASSERT_TRUE(t.Update(row).ok());
  EXPECT_DOUBLE_EQ(t.Get(key)->amount, 11.0);

  ASSERT_TRUE(t.Delete(key).ok());
  EXPECT_EQ(t.live_rows(), 100);
  EXPECT_FALSE(t.Exists(key));
  EXPECT_TRUE(t.Delete(key).IsNotFound());
  EXPECT_TRUE(t.Update(row).IsNotFound());
}

TEST(SyntheticTableTest, UpdateOfBaseRowGoesToOverlay) {
  SyntheticTable t(TestSchema("orders", 100), 1);
  Row row = *t.Get(5);
  row.amount = 123.0;
  ASSERT_TRUE(t.Update(row).ok());
  EXPECT_EQ(t.overlay_rows(), 1u);
  EXPECT_DOUBLE_EQ(t.Get(5)->amount, 123.0);
  // Untouched neighbours still generated.
  EXPECT_DOUBLE_EQ(t.Get(6)->amount, 3.0);
}

TEST(SyntheticTableTest, DeleteOfBaseRowLeavesTombstone) {
  SyntheticTable t(TestSchema("orders", 100), 1);
  ASSERT_TRUE(t.Delete(5).ok());
  EXPECT_EQ(t.tombstones(), 1u);
  EXPECT_FALSE(t.Get(5).has_value());
  // Re-insert over a tombstone works.
  Row row;
  row.key = 5;
  ASSERT_TRUE(t.Insert(row).ok());
  EXPECT_TRUE(t.Exists(5));
  EXPECT_EQ(t.tombstones(), 0u);
}

TEST(SyntheticTableTest, AllocatedKeysAreMonotonic) {
  SyntheticTable t(TestSchema("orders", 10), 1);
  int64_t a = t.AllocateKey();
  int64_t b = t.AllocateKey();
  EXPECT_EQ(b, a + 1);
  EXPECT_EQ(t.max_key(), b);
}

TEST(SyntheticTableTest, PageMappingSpansLogicalSpace) {
  SyntheticTable t(TestSchema("orders", 100000, 80), 1);
  EXPECT_EQ(t.rows_per_page(), 8192 / 80);
  EXPECT_EQ(t.PageOf(0), 0);
  EXPECT_GT(t.pages(), 900);  // ~100000/102
  EXPECT_EQ(t.logical_bytes(), 100000 * 80);
}

TEST(SyntheticTableTest, StateHashDetectsDifferencesAndMatchesReplay) {
  SyntheticTable a(TestSchema("orders", 100), 1);
  SyntheticTable b(TestSchema("orders", 100), 1);
  EXPECT_EQ(a.StateHash(), b.StateHash());

  Row row = *a.Get(3);
  row.amount = 1.0;
  ASSERT_TRUE(a.Update(row).ok());
  EXPECT_NE(a.StateHash(), b.StateHash());
  ASSERT_TRUE(b.Update(row).ok());
  EXPECT_EQ(a.StateHash(), b.StateHash());

  // Order of operations must not matter for the final hash.
  SyntheticTable c(TestSchema("orders", 100), 1);
  SyntheticTable d(TestSchema("orders", 100), 1);
  Row r1 = *c.Get(1);
  r1.amount = 7;
  Row r2 = *c.Get(2);
  r2.amount = 8;
  ASSERT_TRUE(c.Update(r1).ok());
  ASSERT_TRUE(c.Update(r2).ok());
  ASSERT_TRUE(d.Update(r2).ok());
  ASSERT_TRUE(d.Update(r1).ok());
  EXPECT_EQ(c.StateHash(), d.StateHash());
}

// ------------------------------------------ SyntheticTable: insert tail

constexpr int64_t kChunk = SyntheticTable::kTailChunkRows;

Row TailRow(int64_t key) {
  Row r;
  r.key = key;
  r.ref_a = key % 7;
  r.amount = static_cast<double>(key) * 0.25;
  return r;
}

TEST(SyntheticTableTailTest, ReplicaInsertOrderAndGapsHashLikeInOrder) {
  // The primary allocates serial keys across three chunks; every 5th
  // transaction aborts, leaving its key a hole. A replica applies the
  // committed inserts in commit order, which is not key order.
  SyntheticTable primary(TestSchema("orderline", 100), 1);
  std::vector<int64_t> committed;
  for (int64_t i = 0; i < 2 * kChunk + 300; ++i) {
    int64_t key = primary.AllocateKey();
    if (i % 5 == 3) continue;  // aborted
    ASSERT_TRUE(primary.Insert(TailRow(key)).ok());
    committed.push_back(key);
  }
  // The last transaction commits, so the allocators agree too.
  int64_t last = primary.AllocateKey();
  ASSERT_TRUE(primary.Insert(TailRow(last)).ok());
  committed.push_back(last);

  std::vector<int64_t> shuffled = committed;
  util::Pcg32 rng(7);
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.NextBounded(
                               static_cast<uint32_t>(i + 1))]);
  }
  SyntheticTable replica(TestSchema("orderline", 100), 1);
  for (int64_t key : shuffled) ASSERT_TRUE(replica.Insert(TailRow(key)).ok());

  EXPECT_EQ(replica.ContentHash(), primary.ContentHash());
  EXPECT_EQ(replica.live_rows(), primary.live_rows());
  EXPECT_EQ(replica.StateHash(), primary.StateHash());

  // Every tail row folds into the hash exactly as an overlay row does.
  uint64_t expected = 0;
  for (int64_t key : committed) {
    expected ^= TailRow(key).Hash() * 0x2545f4914f6cdd1dULL;
  }
  EXPECT_EQ(primary.ContentHash(), expected);
}

TEST(SyntheticTableTailTest, TailKeyCanBeDeletedAndInsertedAgain) {
  SyntheticTable t(TestSchema("orderline", 100), 1);
  int64_t key = t.AllocateKey();
  ASSERT_TRUE(t.Insert(TailRow(key)).ok());
  uint64_t with_row = t.StateHash();
  ASSERT_TRUE(t.Delete(key).ok());
  EXPECT_FALSE(t.Exists(key));
  EXPECT_EQ(t.tombstones(), 0u);  // only base rows leave tombstones
  Row again = TailRow(key);
  ASSERT_TRUE(t.Insert(again).ok());
  EXPECT_EQ(t.Get(key), again);
  EXPECT_EQ(t.StateHash(), with_row);
  EXPECT_EQ(t.live_rows(), 101);
}

TEST(SyntheticTableTailTest, HolesAndKeysPastMaxKeyAreMissing) {
  SyntheticTable t(TestSchema("orderline", 100), 1);
  int64_t hole = t.AllocateKey();  // allocated, never inserted (aborted)
  int64_t key = t.AllocateKey();
  ASSERT_TRUE(t.Insert(TailRow(key)).ok());
  int64_t past_max = t.max_key() + 1;
  int64_t past_chunk = t.max_key() + 3 * kChunk;
  int64_t past_tail = t.base_count() + SyntheticTable::kMaxTailRows + 1;
  uint64_t before = t.StateHash();
  for (int64_t missing : {hole, past_max, past_chunk, past_tail}) {
    SCOPED_TRACE(missing);
    EXPECT_FALSE(t.Exists(missing));
    EXPECT_FALSE(t.Get(missing).has_value());
    EXPECT_TRUE(t.Update(TailRow(missing)).IsNotFound());
    EXPECT_TRUE(t.Delete(missing).IsNotFound());
  }
  EXPECT_EQ(t.StateHash(), before);
  EXPECT_EQ(t.live_rows(), 101);
  EXPECT_EQ(t.max_key(), key);
  EXPECT_EQ(t.tail_chunks(), 1u);  // lookups allocate nothing

  Row updated = TailRow(key);
  updated.amount = -1.0;
  ASSERT_TRUE(t.Update(updated).ok());
  EXPECT_EQ(t.Get(key), updated);
}

TEST(SyntheticTableTailTest, CopyContentsFromCopiesTailRows) {
  SyntheticTable src(TestSchema("orderline", 100), 1);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(src.Insert(TailRow(src.AllocateKey())).ok());
  }
  ASSERT_TRUE(src.Delete(103).ok());
  ASSERT_TRUE(src.Insert(TailRow(100 + 2 * kChunk)).ok());  // far chunk
  ASSERT_TRUE(src.Delete(5).ok());                          // tombstone

  SyntheticTable dst(TestSchema("orderline", 100), 1);
  dst.CopyContentsFrom(src);
  EXPECT_EQ(dst.StateHash(), src.StateHash());
  EXPECT_EQ(dst.overlay_rows(), src.overlay_rows());
  EXPECT_EQ(dst.tail_chunks(), 2u);
  EXPECT_EQ(dst.Get(104), TailRow(104));
  EXPECT_FALSE(dst.Exists(103));
  EXPECT_TRUE(dst.Exists(100 + 2 * kChunk));

  // The copy is independent of its source.
  ASSERT_TRUE(src.Delete(104).ok());
  EXPECT_TRUE(dst.Exists(104));
  ASSERT_TRUE(dst.Insert(TailRow(103)).ok());
  EXPECT_FALSE(src.Exists(103));
}

TEST(SyntheticTableTailTest, OverlayRowsCountsTailRows) {
  SyntheticTable t(TestSchema("orderline", 100), 1);
  Row base = *t.Get(5);
  base.amount = 1.0;
  ASSERT_TRUE(t.Update(base).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.Insert(TailRow(t.AllocateKey())).ok());
  }
  EXPECT_EQ(t.overlay_rows(), 4u);
  ASSERT_TRUE(t.Delete(101).ok());
  EXPECT_EQ(t.overlay_rows(), 3u);
}

TEST(SyntheticTableTailTest, EmptiedChunkIsReleased) {
  SyntheticTable t(TestSchema("orderline", 100), 1);
  for (int64_t i = 0; i < 2 * kChunk + 10; ++i) {
    ASSERT_TRUE(t.Insert(TailRow(t.AllocateKey())).ok());
  }
  EXPECT_EQ(t.tail_chunks(), 3u);
  // Delete oldest first, as T4 does: chunk 0 is freed with its last row.
  for (int64_t key = 100; key < 100 + kChunk - 1; ++key) {
    ASSERT_TRUE(t.Delete(key).ok());
  }
  EXPECT_EQ(t.tail_chunks(), 3u);
  ASSERT_TRUE(t.Delete(100 + kChunk - 1).ok());
  EXPECT_EQ(t.tail_chunks(), 2u);
  EXPECT_FALSE(t.Exists(100));

  // The highest chunk stays while empty: the next serial inserts land in
  // it. It is freed once a higher chunk opens.
  for (int64_t key = 100 + 2 * kChunk; key <= t.max_key(); ++key) {
    ASSERT_TRUE(t.Delete(key).ok());
  }
  EXPECT_EQ(t.tail_chunks(), 2u);
  ASSERT_TRUE(t.Insert(TailRow(100 + 3 * kChunk)).ok());
  EXPECT_EQ(t.tail_chunks(), 2u);  // chunk 1 and chunk 3

  // A freed chunk comes back for a key inserted into it again.
  ASSERT_TRUE(t.Insert(TailRow(100)).ok());
  EXPECT_EQ(t.tail_chunks(), 3u);
  EXPECT_EQ(t.overlay_rows(), static_cast<size_t>(kChunk + 2));
  EXPECT_EQ(t.live_rows(), 100 + kChunk + 2);
}

TEST(SyntheticTableTailTest, InsertPastNextKeyHonoursAnyUnusedKey) {
  SyntheticTable t(TestSchema("orderline", 100), 1);
  int64_t far = 100 + 1000 * kChunk + 5;
  ASSERT_TRUE(t.Insert(TailRow(far)).ok());
  EXPECT_EQ(t.max_key(), far);
  EXPECT_EQ(t.AllocateKey(), far + 1);
  EXPECT_EQ(t.tail_chunks(), 1u);  // only the chunk touched
  EXPECT_FALSE(t.Exists(far - 1));
  EXPECT_TRUE(t.Insert(TailRow(far)).code() ==
              util::StatusCode::kAlreadyExists);

  // Past the tail's range the overlay takes the row: still any key.
  int64_t beyond = 100 + SyntheticTable::kMaxTailRows + 7;
  ASSERT_TRUE(t.Insert(TailRow(beyond)).ok());
  EXPECT_EQ(t.tail_chunks(), 1u);
  EXPECT_EQ(t.Get(beyond), TailRow(beyond));
  EXPECT_EQ(t.AllocateKey(), beyond + 1);
  EXPECT_EQ(t.overlay_rows(), 2u);
  ASSERT_TRUE(t.Delete(beyond).ok());
  EXPECT_EQ(t.tombstones(), 0u);
  EXPECT_EQ(t.live_rows(), 101);
}

TEST(TableSetTest, RegistryAssignsIdsAndFinds) {
  TableSet set;
  SyntheticTable* orders = set.Create(TestSchema("orders", 100), 1);
  SyntheticTable* cust = set.Create(TestSchema("customer", 100), 1);
  EXPECT_EQ(orders->id(), 0);
  EXPECT_EQ(cust->id(), 1);
  EXPECT_EQ(set.Find("orders"), orders);
  EXPECT_EQ(set.FindById(1), cust);
  EXPECT_EQ(set.Find("nope"), nullptr);
  EXPECT_EQ(set.FindById(9), nullptr);
  EXPECT_EQ(set.TotalLogicalBytes(), 2 * 100 * 64);
}

// ------------------------------------------------------------ BufferPool

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(BufferPool::kPageBytes * 10);
  PageId p{0, 1};
  EXPECT_FALSE(pool.Touch(p));
  pool.Admit(p);
  EXPECT_TRUE(pool.Touch(p));
  EXPECT_EQ(pool.hits(), 1);
  EXPECT_EQ(pool.misses(), 1);
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.5);
}

TEST(BufferPoolTest, LruEviction) {
  BufferPool pool(BufferPool::kPageBytes * 2);
  pool.Admit({0, 1});
  pool.Admit({0, 2});
  EXPECT_TRUE(pool.Touch({0, 1}));  // 1 becomes MRU; 2 is LRU
  auto result = pool.Admit({0, 3});
  EXPECT_TRUE(result.evicted);
  EXPECT_EQ(result.victim, (PageId{0, 2}));
  EXPECT_TRUE(pool.IsResident({0, 1}));
  EXPECT_FALSE(pool.IsResident({0, 2}));
}

TEST(BufferPoolTest, DirtyTracking) {
  BufferPool pool(BufferPool::kPageBytes * 4);
  pool.Admit({0, 1});
  pool.Admit({0, 2});
  pool.MarkDirty({0, 1});
  pool.MarkDirty({0, 1});  // idempotent
  EXPECT_EQ(pool.dirty_pages(), 1);
  EXPECT_TRUE(pool.IsDirty({0, 1}));
  pool.MarkClean({0, 1});
  EXPECT_EQ(pool.dirty_pages(), 0);
  pool.MarkDirty({9, 9});  // not resident: no-op
  EXPECT_EQ(pool.dirty_pages(), 0);
}

TEST(BufferPoolTest, EvictingDirtyPageReportsIt) {
  BufferPool pool(BufferPool::kPageBytes * 1);
  pool.Admit({0, 1});
  pool.MarkDirty({0, 1});
  auto result = pool.Admit({0, 2});
  EXPECT_TRUE(result.evicted);
  EXPECT_TRUE(result.victim_dirty);
  EXPECT_EQ(pool.forced_dirty_evictions(), 1);
  EXPECT_EQ(pool.dirty_pages(), 0);
}

TEST(BufferPoolTest, TakeDirtyCleansInLruOrder) {
  BufferPool pool(BufferPool::kPageBytes * 8);
  for (int64_t i = 0; i < 5; ++i) {
    pool.Admit({0, i});
    pool.MarkDirty({0, i});
  }
  std::vector<PageId> taken = pool.TakeDirty(3);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0], (PageId{0, 0}));  // coldest first
  EXPECT_EQ(pool.dirty_pages(), 2);
}

TEST(BufferPoolTest, ShrinkEvictsAndClearResets) {
  BufferPool pool(BufferPool::kPageBytes * 4);
  for (int64_t i = 0; i < 4; ++i) pool.Admit({0, i});
  pool.SetCapacity(BufferPool::kPageBytes * 2);
  EXPECT_EQ(pool.resident_pages(), 2);
  EXPECT_EQ(pool.capacity_pages(), 2);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0);
}

TEST(BufferPoolTest, IndexGrowthIndexesTheNewPageOnce) {
  BufferPool pool(64 * BufferPool::kPageBytes);
  // The ninth admit grows the 16-slot index; then the page it admitted
  // becomes the LRU end and a shrink evicts it.
  for (int64_t page = 0; page < 9; ++page) pool.Admit(PageId{0, page});
  for (int64_t page = 0; page < 8; ++page) pool.Touch(PageId{0, page});
  pool.SetCapacity(8 * BufferPool::kPageBytes);
  EXPECT_FALSE(pool.IsResident(PageId{0, 8}));
  EXPECT_FALSE(pool.Touch(PageId{0, 8}));
  EXPECT_EQ(pool.resident_pages(), 8);
}

TEST(BufferPoolTest, HigherCapacityNeverLowersHitRate) {
  // Property: for the same reference string, a bigger LRU pool hits at
  // least as often (LRU inclusion property).
  util::Pcg32 rng(77);
  std::vector<PageId> refs;
  for (int i = 0; i < 5000; ++i) {
    refs.push_back(PageId{0, static_cast<int64_t>(rng.NextBounded(200))});
  }
  double prev_rate = -1.0;
  for (int64_t pages : {8, 32, 128, 256}) {
    BufferPool pool(BufferPool::kPageBytes * pages);
    for (PageId p : refs) {
      if (!pool.Touch(p)) pool.Admit(p);
    }
    EXPECT_GE(pool.hit_rate(), prev_rate);
    prev_rate = pool.hit_rate();
  }
}

// ------------------------------------------------------------ DiskDevice

sim::Process DoReads(DiskDevice* d, int n, double* done_at,
                     sim::Environment* env) {
  for (int i = 0; i < n; ++i) co_await d->Read(8192);
  *done_at = env->Now().ToSeconds();
}

TEST(DiskDeviceTest, IopsBoundSerializes) {
  sim::Environment env;
  DiskDevice::Config cfg;
  cfg.provisioned_iops = 10;  // 10 IOs/sec
  cfg.read_latency = sim::Micros(0);
  DiskDevice disk(&env, cfg);
  double t = 0;
  env.Spawn(DoReads(&disk, 20, &t, &env));
  env.Run();
  EXPECT_NEAR(t, 2.0, 0.01);
  EXPECT_EQ(disk.reads(), 20);
  EXPECT_DOUBLE_EQ(disk.io_consumed(), 20.0);
}

TEST(DiskDeviceTest, LargeWritesCostMultipleTokens) {
  sim::Environment env;
  DiskDevice::Config cfg;
  cfg.provisioned_iops = 100;
  cfg.write_latency = sim::Micros(0);
  DiskDevice disk(&env, cfg);
  bool done = false;
  env.ScheduleCall(sim::Seconds(0), [&] {});
  env.Spawn([](DiskDevice* d, bool* flag) -> sim::Process {
    co_await d->Write(1024 * 1024);  // 1MiB = 4 tokens of 256KiB
    *flag = true;
  }(&disk, &done));
  env.Run();
  EXPECT_TRUE(done);
  EXPECT_DOUBLE_EQ(disk.io_consumed(), 4.0);
}

// ------------------------------------------------------------ LogManager

sim::Process CommitOne(LogManager* log, int64_t txn_id, double* done_at,
                       sim::Environment* env) {
  LogRecord rec;
  rec.txn_id = txn_id;
  rec.type = LogRecordType::kUpdate;
  rec.key = txn_id;
  log->Append(rec);
  LogRecord commit;
  commit.txn_id = txn_id;
  commit.type = LogRecordType::kCommit;
  int64_t lsn = log->Append(commit);
  co_await log->WaitDurable(lsn);
  *done_at = env->Now().ToSeconds();
}

TEST(LogManagerTest, AssignsMonotonicLsns) {
  sim::Environment env;
  DiskDevice::Config cfg;
  DiskDevice disk(&env, cfg);
  LogManager log(&env, &disk);
  LogRecord r;
  EXPECT_EQ(log.Append(r), 1);
  EXPECT_EQ(log.Append(r), 2);
  EXPECT_EQ(log.appended_lsn(), 2);
  EXPECT_EQ(log.flushed_lsn(), 0);
  EXPECT_GT(log.pending_bytes(), 0);
}

TEST(LogManagerTest, GroupCommitSharesFlushes) {
  sim::Environment env;
  DiskDevice::Config cfg;
  cfg.provisioned_iops = 1000;
  cfg.write_latency = sim::Millis(1);
  DiskDevice disk(&env, cfg);
  LogManager log(&env, &disk);
  std::vector<double> done(8, 0);
  for (int i = 0; i < 8; ++i) {
    env.Spawn(CommitOne(&log, i, &done[static_cast<size_t>(i)], &env));
  }
  env.Run();
  // First committer triggers a flush; the other seven share the second
  // batch: 2 device writes total, not 8.
  EXPECT_EQ(log.flush_batches(), 2);
  EXPECT_EQ(log.flushed_lsn(), 16);
  for (double t : done) EXPECT_GT(t, 0.0);
}

TEST(LogManagerTest, ShipListenersSeeDurableRecordsInOrder) {
  sim::Environment env;
  DiskDevice::Config cfg;
  DiskDevice disk(&env, cfg);
  LogManager log(&env, &disk);
  std::vector<int64_t> shipped;
  log.AddShipListener([&](std::span<const LogRecord> batch) {
    for (const LogRecord& r : batch) shipped.push_back(r.lsn);
  });
  double t1 = 0, t2 = 0;
  env.Spawn(CommitOne(&log, 1, &t1, &env));
  env.Spawn(CommitOne(&log, 2, &t2, &env));
  env.Run();
  EXPECT_EQ(shipped, (std::vector<int64_t>{1, 2, 3, 4}));
}

TEST(LogManagerTest, WaitDurableOnFlushedLsnReturnsImmediately) {
  sim::Environment env;
  DiskDevice::Config cfg;
  DiskDevice disk(&env, cfg);
  LogManager log(&env, &disk);
  double t1 = 0;
  env.Spawn(CommitOne(&log, 1, &t1, &env));
  env.Run();
  double t2 = -1;
  env.Spawn([](LogManager* lm, double* out, sim::Environment* e) -> sim::Process {
    co_await lm->WaitDurable(1);
    *out = e->Now().ToSeconds();
  }(&log, &t2, &env));
  env.Run();
  EXPECT_DOUBLE_EQ(t2, t1);  // no extra delay
}

// ------------------------------------------------------------------- Net

sim::Process SendMsg(net::Link* link, int64_t bytes, double* done_at,
                     sim::Environment* env) {
  co_await link->Transfer(bytes);
  *done_at = env->Now().ToSeconds();
}

TEST(LinkTest, LatencyAndBandwidth) {
  sim::Environment env;
  net::LinkConfig cfg = net::LinkConfig::Tcp10G("test");
  cfg.latency = sim::Millis(1);
  cfg.bandwidth_gbps = 0.008;  // 1 MB/s for easy math
  net::Link link(&env, cfg);
  double t = 0;
  env.Spawn(SendMsg(&link, 1'000'000, &t, &env));
  env.Run();
  EXPECT_NEAR(t, 1.001, 1e-6);  // 1s serialization + 1ms latency
  EXPECT_EQ(link.bytes_transferred(), 1'000'000);
  EXPECT_EQ(link.messages(), 1);
}

TEST(LinkTest, ConcurrentTransfersShareBandwidth) {
  sim::Environment env;
  net::LinkConfig cfg = net::LinkConfig::Tcp10G("test");
  cfg.latency = sim::Micros(0);
  cfg.bandwidth_gbps = 0.008;  // 1 MB/s
  net::Link link(&env, cfg);
  double t1 = 0, t2 = 0;
  env.Spawn(SendMsg(&link, 500'000, &t1, &env));
  env.Spawn(SendMsg(&link, 500'000, &t2, &env));
  env.Run();
  EXPECT_NEAR(t1, 0.5, 1e-9);
  EXPECT_NEAR(t2, 1.0, 1e-9);
}

// ------------------------------------------- BufferPool trace equivalence

// Reference model of the pre-rewrite pool: std::list LRU + unordered_map
// lookup, O(resident) TakeDirty walk from the cold end. The intrusive-list /
// open-addressing rewrite must emit byte-identical hit/miss/eviction/dirty
// sequences on any operation trace — this is the determinism contract that
// keeps every simulated result unchanged.
class ReferenceBufferPool {
 public:
  explicit ReferenceBufferPool(int64_t capacity_bytes)
      : capacity_pages_(
            std::max<int64_t>(1, capacity_bytes / BufferPool::kPageBytes)) {}

  bool Touch(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end()) {
      ++misses_;
      return false;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;
  }

  BufferPool::AdmitResult Admit(PageId page) {
    BufferPool::AdmitResult result;
    if (map_.count(page) > 0) return result;
    if (static_cast<int64_t>(lru_.size()) >= capacity_pages_) {
      EvictOne(&result);
    }
    lru_.push_front(Entry{page, false});
    map_[page] = lru_.begin();
    return result;
  }

  void MarkDirty(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end() || it->second->dirty) return;
    it->second->dirty = true;
    ++dirty_count_;
  }

  void MarkClean(PageId page) {
    auto it = map_.find(page);
    if (it == map_.end() || !it->second->dirty) return;
    it->second->dirty = false;
    --dirty_count_;
  }

  bool IsResident(PageId page) const { return map_.count(page) > 0; }
  bool IsDirty(PageId page) const {
    auto it = map_.find(page);
    return it != map_.end() && it->second->dirty;
  }

  std::vector<PageId> TakeDirty(size_t max_pages) {
    std::vector<PageId> taken;
    for (auto it = lru_.rbegin(); it != lru_.rend() && taken.size() < max_pages;
         ++it) {
      if (it->dirty) {
        it->dirty = false;
        --dirty_count_;
        taken.push_back(it->page);
      }
    }
    return taken;
  }

  void SetCapacity(int64_t capacity_bytes) {
    capacity_pages_ =
        std::max<int64_t>(1, capacity_bytes / BufferPool::kPageBytes);
    while (static_cast<int64_t>(lru_.size()) > capacity_pages_) {
      EvictOne(nullptr);
    }
  }

  void Clear() {
    lru_.clear();
    map_.clear();
    dirty_count_ = 0;
  }

  int64_t resident_pages() const { return static_cast<int64_t>(lru_.size()); }
  int64_t dirty_pages() const { return dirty_count_; }
  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  int64_t forced_dirty_evictions() const { return forced_dirty_evictions_; }

 private:
  struct Entry {
    PageId page;
    bool dirty = false;
  };

  void EvictOne(BufferPool::AdmitResult* result) {
    Entry victim = lru_.back();
    if (victim.dirty) {
      --dirty_count_;
      ++forced_dirty_evictions_;
      if (result != nullptr) result->victim_dirty = true;
    }
    map_.erase(victim.page);
    lru_.pop_back();
    if (result != nullptr) {
      result->evicted = true;
      result->victim = victim.page;
    }
  }

  int64_t capacity_pages_;
  std::list<Entry> lru_;
  std::unordered_map<PageId, std::list<Entry>::iterator, PageIdHash> map_;
  int64_t dirty_count_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t forced_dirty_evictions_ = 0;
};

TEST(BufferPoolTraceTest, MatchesReferenceModelOnRandom100kOpTrace) {
  const int64_t kCapBytes = 256 * BufferPool::kPageBytes;
  BufferPool pool(kCapBytes);
  ReferenceBufferPool ref(kCapBytes);
  util::Pcg32 rng(20260805);
  auto rand_page = [&rng] {
    return PageId{static_cast<TableId>(rng.NextBounded(3)),
                  static_cast<int64_t>(rng.NextBounded(1500))};
  };
  for (int op = 0; op < 100000; ++op) {
    uint32_t r = rng.NextBounded(100);
    if (r < 55) {
      // Engine access path: touch, admit on miss.
      PageId p = rand_page();
      bool hit_pool = pool.Touch(p);
      bool hit_ref = ref.Touch(p);
      ASSERT_EQ(hit_pool, hit_ref) << "op " << op;
      if (!hit_pool) {
        BufferPool::AdmitResult a = pool.Admit(p);
        BufferPool::AdmitResult b = ref.Admit(p);
        ASSERT_EQ(a.evicted, b.evicted) << "op " << op;
        ASSERT_EQ(a.victim_dirty, b.victim_dirty) << "op " << op;
        if (a.evicted) {
          ASSERT_EQ(a.victim, b.victim) << "op " << op;
        }
      }
    } else if (r < 75) {
      PageId p = rand_page();
      pool.MarkDirty(p);
      ref.MarkDirty(p);
    } else if (r < 80) {
      PageId p = rand_page();
      pool.MarkClean(p);
      ref.MarkClean(p);
    } else if (r < 90) {
      PageId p = rand_page();
      ASSERT_EQ(pool.IsResident(p), ref.IsResident(p)) << "op " << op;
      ASSERT_EQ(pool.IsDirty(p), ref.IsDirty(p)) << "op " << op;
    } else if (r < 97) {
      size_t n = 1 + rng.NextBounded(32);
      std::vector<PageId> a = pool.TakeDirty(n);
      std::vector<PageId> b = ref.TakeDirty(n);
      ASSERT_EQ(a, b) << "op " << op;
    } else if (r < 99) {
      int64_t pages = 64 + static_cast<int64_t>(rng.NextBounded(512));
      pool.SetCapacity(pages * BufferPool::kPageBytes);
      ref.SetCapacity(pages * BufferPool::kPageBytes);
    } else if (rng.NextBounded(10) == 0) {
      pool.Clear();
      ref.Clear();
    }
    if (op % 1000 == 0) {
      ASSERT_EQ(pool.resident_pages(), ref.resident_pages()) << "op " << op;
      ASSERT_EQ(pool.dirty_pages(), ref.dirty_pages()) << "op " << op;
    }
  }
  EXPECT_EQ(pool.hits(), ref.hits());
  EXPECT_EQ(pool.misses(), ref.misses());
  EXPECT_EQ(pool.resident_pages(), ref.resident_pages());
  EXPECT_EQ(pool.dirty_pages(), ref.dirty_pages());
  EXPECT_EQ(pool.forced_dirty_evictions(), ref.forced_dirty_evictions());
}

// ------------------------------------------------- BufferPool bulk prewarm

// Prewarm's contract is "the same state as Admit on each page in order".
// Each case below builds one pool through Prewarm and a twin
// through a per-page Admit loop, then drives both with one random trace:
// any difference in LRU order, stamps, index or dirty chain shows up as a
// different hit, victim or TakeDirty order.

void AdmitEach(BufferPool* pool, std::span<const PageRun> runs) {
  for (const PageRun& run : runs) {
    for (int64_t i = 0; i < run.count; ++i) {
      pool->Admit(PageId{run.first.table, run.first.page_no + i});
    }
  }
}

void ExpectSameUnderTrace(BufferPool* a, BufferPool* b, uint64_t seed) {
  const int64_t hits_a = a->hits(), hits_b = b->hits();
  const int64_t misses_a = a->misses(), misses_b = b->misses();
  const int64_t forced_a = a->forced_dirty_evictions();
  const int64_t forced_b = b->forced_dirty_evictions();
  util::Pcg32 rng(seed);
  auto rand_page = [&rng] {
    return PageId{static_cast<TableId>(rng.NextBounded(4)),
                  static_cast<int64_t>(rng.NextBounded(800))};
  };
  // Dirty pages in a scrambled order before anything touches them, so the
  // dirty chain's order depends on the stamps the warm-up left.
  for (int i = 0; i < 300; ++i) {
    PageId p = rand_page();
    a->MarkDirty(p);
    b->MarkDirty(p);
  }
  ASSERT_EQ(a->TakeDirty(100), b->TakeDirty(100));
  for (int op = 0; op < 20000; ++op) {
    uint32_t r = rng.NextBounded(100);
    if (r < 55) {
      PageId p = rand_page();
      bool hit = a->Touch(p);
      ASSERT_EQ(hit, b->Touch(p)) << "op " << op;
      if (!hit) {
        BufferPool::AdmitResult x = a->Admit(p);
        BufferPool::AdmitResult y = b->Admit(p);
        ASSERT_EQ(x.evicted, y.evicted) << "op " << op;
        ASSERT_EQ(x.victim_dirty, y.victim_dirty) << "op " << op;
        if (x.evicted) {
          ASSERT_EQ(x.victim, y.victim) << "op " << op;
        }
      }
    } else if (r < 75) {
      PageId p = rand_page();
      a->MarkDirty(p);
      b->MarkDirty(p);
    } else if (r < 80) {
      PageId p = rand_page();
      a->MarkClean(p);
      b->MarkClean(p);
    } else if (r < 90) {
      PageId p = rand_page();
      ASSERT_EQ(a->IsResident(p), b->IsResident(p)) << "op " << op;
      ASSERT_EQ(a->IsDirty(p), b->IsDirty(p)) << "op " << op;
    } else if (r < 98) {
      size_t n = 1 + rng.NextBounded(32);
      ASSERT_EQ(a->TakeDirty(n), b->TakeDirty(n)) << "op " << op;
    } else {
      int64_t pages = 64 + static_cast<int64_t>(rng.NextBounded(1024));
      a->SetCapacity(pages * BufferPool::kPageBytes);
      b->SetCapacity(pages * BufferPool::kPageBytes);
    }
  }
  EXPECT_EQ(a->hits() - hits_a, b->hits() - hits_b);
  EXPECT_EQ(a->misses() - misses_a, b->misses() - misses_b);
  EXPECT_EQ(a->forced_dirty_evictions() - forced_a,
            b->forced_dirty_evictions() - forced_b);
  EXPECT_EQ(a->resident_pages(), b->resident_pages());
  EXPECT_EQ(a->dirty_pages(), b->dirty_pages());
}

TEST(BufferPoolPrewarmTest, SeveralRunsMatchPerPageAdmit) {
  const std::vector<PageRun> runs = {{PageId{0, 0}, 300},
                                     {PageId{1, 0}, 0},
                                     {PageId{2, 100}, 250},
                                     {PageId{3, 0}, 200}};
  BufferPool bulk(1024 * BufferPool::kPageBytes);
  BufferPool twin(1024 * BufferPool::kPageBytes);
  bulk.Prewarm(runs);
  AdmitEach(&twin, runs);
  EXPECT_EQ(bulk.resident_pages(), 750);
  EXPECT_EQ(bulk.hits(), 0);
  EXPECT_EQ(bulk.misses(), 0);
  EXPECT_TRUE(bulk.IsResident(PageId{2, 349}));
  EXPECT_FALSE(bulk.IsResident(PageId{2, 99}));
  EXPECT_FALSE(bulk.IsResident(PageId{1, 0}));
  ExpectSameUnderTrace(&bulk, &twin, 11);
}

TEST(BufferPoolPrewarmTest, FullPoolEvictsFirstPageOfFirstRunNext) {
  const std::vector<PageRun> runs = {{PageId{1, 0}, 200},
                                     {PageId{2, 50}, 312}};
  BufferPool bulk(512 * BufferPool::kPageBytes);
  BufferPool twin(512 * BufferPool::kPageBytes);
  bulk.Prewarm(runs);
  AdmitEach(&twin, runs);
  ASSERT_EQ(bulk.resident_pages(), bulk.capacity_pages());
  for (BufferPool* pool : {&bulk, &twin}) {
    BufferPool::AdmitResult admitted = pool->Admit(PageId{3, 7});
    ASSERT_TRUE(admitted.evicted);
    EXPECT_EQ(admitted.victim, (PageId{1, 0}));
  }
  ExpectSameUnderTrace(&bulk, &twin, 12);
}

TEST(BufferPoolPrewarmTest, ShrunkWarmPoolReprewarmsPageByPage) {
  // The Fig. 8 path: a warm pool is resized and prewarmed again, so resident
  // pages are skipped and missing ones admitted with eviction.
  const std::vector<PageRun> first = {{PageId{0, 0}, 400},
                                      {PageId{1, 0}, 400}};
  const std::vector<PageRun> again = {{PageId{0, 100}, 300},
                                      {PageId{2, 0}, 150}};
  BufferPool bulk(1024 * BufferPool::kPageBytes);
  BufferPool twin(1024 * BufferPool::kPageBytes);
  bulk.Prewarm(first);
  AdmitEach(&twin, first);
  for (int64_t page = 0; page < 400; page += 7) {
    bulk.MarkDirty(PageId{0, page});
    twin.MarkDirty(PageId{0, page});
  }
  bulk.SetCapacity(300 * BufferPool::kPageBytes);
  twin.SetCapacity(300 * BufferPool::kPageBytes);
  bulk.Prewarm(again);
  AdmitEach(&twin, again);
  EXPECT_GT(bulk.forced_dirty_evictions(), 0);
  EXPECT_EQ(bulk.forced_dirty_evictions(), twin.forced_dirty_evictions());
  ExpectSameUnderTrace(&bulk, &twin, 13);
}

TEST(BufferPoolPrewarmTest, PrewarmAfterClearMatchesPerPageAdmit) {
  const std::vector<PageRun> runs = {{PageId{0, 0}, 100},
                                     {PageId{3, 500}, 100}};
  BufferPool bulk(512 * BufferPool::kPageBytes);
  BufferPool twin(512 * BufferPool::kPageBytes);
  for (BufferPool* pool : {&bulk, &twin}) {
    AdmitEach(pool, std::vector<PageRun>{{PageId{1, 0}, 500}});
    pool->MarkDirty(PageId{1, 3});
    pool->Clear();
  }
  bulk.Prewarm(runs);
  AdmitEach(&twin, runs);
  ExpectSameUnderTrace(&bulk, &twin, 14);
}

TEST(BufferPoolPrewarmTest, DirtiedColdPageKeepsItsPrewarmRecency) {
  // MarkDirty on a page no one has used yet gives it a frame at its prewarm
  // stamp, so admits at capacity still evict in prewarm order and report
  // the dirty victim exactly at that page.
  const std::vector<PageRun> runs = {{PageId{0, 0}, 200},
                                     {PageId{1, 0}, 312}};
  auto prewarmed = [](int64_t pos) {
    return pos < 200 ? PageId{0, pos} : PageId{1, pos - 200};
  };
  const PageId middle{1, 10};
  BufferPool bulk(512 * BufferPool::kPageBytes);
  BufferPool twin(512 * BufferPool::kPageBytes);
  bulk.Prewarm(runs);
  AdmitEach(&twin, runs);
  for (BufferPool* pool : {&bulk, &twin}) {
    pool->MarkDirty(middle);
    ASSERT_TRUE(pool->IsDirty(middle));
    for (int64_t pos = 0; pos < 300; ++pos) {
      BufferPool::AdmitResult admitted = pool->Admit(PageId{3, pos});
      ASSERT_TRUE(admitted.evicted) << "pos " << pos;
      ASSERT_EQ(admitted.victim, prewarmed(pos)) << "pos " << pos;
      ASSERT_EQ(admitted.victim_dirty, admitted.victim == middle)
          << "pos " << pos;
    }
    EXPECT_EQ(pool->forced_dirty_evictions(), 1);
  }
  ExpectSameUnderTrace(&bulk, &twin, 15);
}

TEST(BufferPoolPrewarmTest, ShrinkEvictsThroughTheColdSegment) {
  const std::vector<PageRun> runs = {{PageId{0, 0}, 300},
                                     {PageId{2, 100}, 300}};
  BufferPool bulk(1024 * BufferPool::kPageBytes);
  BufferPool twin(1024 * BufferPool::kPageBytes);
  bulk.Prewarm(runs);
  AdmitEach(&twin, runs);
  for (BufferPool* pool : {&bulk, &twin}) {
    for (int64_t page = 0; page <= 50; page += 5) {
      ASSERT_TRUE(pool->Touch(PageId{0, page}));
    }
    pool->MarkDirty(PageId{0, 10});
    pool->MarkDirty(PageId{0, 100});  // never touched: evicted dirty below
    pool->SetCapacity(400 * BufferPool::kPageBytes);
    EXPECT_EQ(pool->resident_pages(), 400);
    EXPECT_EQ(pool->forced_dirty_evictions(), 1);
    EXPECT_TRUE(pool->IsResident(PageId{0, 0}));
    EXPECT_FALSE(pool->IsResident(PageId{0, 1}));
    EXPECT_FALSE(pool->IsResident(PageId{0, 100}));
    EXPECT_TRUE(pool->IsDirty(PageId{0, 10}));
  }
  ExpectSameUnderTrace(&bulk, &twin, 16);
}

TEST(BufferPoolPrewarmTest, ClearDropsTheColdSegment) {
  const std::vector<PageRun> first = {{PageId{1, 0}, 400}};
  const std::vector<PageRun> again = {{PageId{0, 0}, 100},
                                      {PageId{3, 500}, 100}};
  BufferPool bulk(512 * BufferPool::kPageBytes);
  BufferPool twin(512 * BufferPool::kPageBytes);
  bulk.Prewarm(first);
  AdmitEach(&twin, first);
  for (BufferPool* pool : {&bulk, &twin}) {
    pool->Touch(PageId{1, 7});
    pool->MarkDirty(PageId{1, 3});
    pool->Clear();
    EXPECT_EQ(pool->resident_pages(), 0);
    EXPECT_EQ(pool->dirty_pages(), 0);
    EXPECT_FALSE(pool->IsResident(PageId{1, 7}));
    EXPECT_FALSE(pool->IsResident(PageId{1, 200}));
    EXPECT_FALSE(pool->Touch(PageId{1, 200}));
  }
  bulk.Prewarm(again);
  AdmitEach(&twin, again);
  EXPECT_FALSE(bulk.IsResident(PageId{1, 300}));
  ExpectSameUnderTrace(&bulk, &twin, 17);
}

TEST(BufferPoolPrewarmTest, MillionPagePoolEvictsFirstPageOfFirstRunFirst) {
  constexpr int64_t kPages = int64_t{1} << 20;
  const std::vector<PageRun> runs = {{PageId{2, 0}, kPages / 2},
                                     {PageId{1, 0}, kPages / 2}};
  BufferPool bulk(kPages * BufferPool::kPageBytes);
  BufferPool twin(kPages * BufferPool::kPageBytes);
  bulk.Prewarm(runs);
  AdmitEach(&twin, runs);
  ASSERT_EQ(bulk.resident_pages(), kPages);
  for (BufferPool* pool : {&bulk, &twin}) {
    BufferPool::AdmitResult admitted = pool->Admit(PageId{3, 7});
    ASSERT_TRUE(admitted.evicted);
    EXPECT_EQ(admitted.victim, (PageId{2, 0}));
    admitted = pool->Admit(PageId{3, 8});
    EXPECT_EQ(admitted.victim, (PageId{2, 1}));
  }
  ExpectSameUnderTrace(&bulk, &twin, 18);
}

TEST(LinkTest, ProfilesMatchPaperTableIV) {
  EXPECT_EQ(net::LinkConfig::Tcp10G("a").fabric, net::Fabric::kTcpIp);
  EXPECT_DOUBLE_EQ(net::LinkConfig::Tcp10G("a").bandwidth_gbps, 10.0);
  EXPECT_EQ(net::LinkConfig::Rdma10G("b").fabric, net::Fabric::kRdma);
  EXPECT_LT(net::LinkConfig::Rdma10G("b").latency.us,
            net::LinkConfig::Tcp10G("a").latency.us);
  EXPECT_STREQ(net::FabricName(net::Fabric::kRdma), "RDMA");
}

}  // namespace
}  // namespace cloudybench::storage

#ifndef CLOUDYBENCH_TXN_LOCK_MANAGER_H_
#define CLOUDYBENCH_TXN_LOCK_MANAGER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/environment.h"
#include "sim/fast_call.h"
#include "sim/task.h"
#include "storage/row.h"
#include "util/status.h"

namespace cloudybench::obs {
class TraceRecorder;
}  // namespace cloudybench::obs

namespace cloudybench::txn {

/// A lockable resource: one logical row (the key may be non-existent yet,
/// so key locks double as insert locks).
struct TableKey {
  storage::TableId table = 0;
  int64_t key = 0;

  friend bool operator==(const TableKey&, const TableKey&) = default;
};

struct TableKeyHash {
  size_t operator()(const TableKey& k) const {
    return std::hash<int64_t>()((static_cast<int64_t>(k.table) << 48) ^ k.key);
  }
};

enum class LockMode { kShared, kExclusive };

/// Row-level strict-2PL lock table with FIFO queuing, shared/exclusive
/// modes, and S->X upgrades (upgrades jump to the queue front, the classic
/// treatment). Waits carry a timeout that doubles as the deadlock breaker:
/// CloudyBench's workload orders its locks (ORDERS before CUSTOMER in T2),
/// so in practice timeouts fire only for genuine upgrade deadlocks.
///
/// Layout (DESIGN.md §4i): lock entries live in a recycling slab addressed
/// by an open-addressing fibonacci-hashed index of entry ids — the same
/// shape as the buffer pool's page index. Freed entries keep their holder
/// and queue vector capacity, so the steady-state acquire/release cycle of
/// an OLTP cell (entry alloc -> grant -> release -> entry free) touches no
/// allocator at all. Holder order inside an entry is insignificant (all
/// compatibility checks are order-independent scans), so holders use
/// swap-remove; the wait queue is FIFO via a head cursor because wake
/// order IS significant — it decides event sequence numbers downstream.
class LockManager {
 public:
  LockManager(sim::Environment* env, sim::SimTime wait_timeout);

  LockManager(const LockManager&) = delete;
  LockManager& operator=(const LockManager&) = delete;

  /// Acquires (or upgrades to) `mode` on `key` for `txn_id`. Returns OK when
  /// granted, kAborted when the wait timed out. Re-requesting an
  /// already-held sufficient lock is a cheap no-op. `trace_track` (a
  /// TraceRecorder track, 0 = untracked) attributes the queued wait, if one
  /// happens, to the requesting transaction's trace lane as a
  /// "lock.queue_wait" span; immediate grants record nothing.
  ///
  /// The three immediate grants (a new entry, a lock already held, a
  /// compatible grant with nobody queued) happen at the call and finish
  /// without a coroutine frame. Only a queued wait runs the LockQueued
  /// coroutine, which starts from this call's failed attempt.
  sim::FastCall<util::Status> Lock(int64_t txn_id, TableKey key,
                                   LockMode mode, uint64_t trace_track = 0) {
    Attempt attempt = TryGrant(txn_id, key, mode);
    if (attempt.granted) return util::Status::OK();
    return LockQueued(txn_id, key, mode, attempt, trace_track);
  }

  /// Releases one lock (the caller tracks what it holds).
  void Release(int64_t txn_id, TableKey key);

  /// Releases a batch (commit/abort path).
  void ReleaseAll(int64_t txn_id, const std::vector<TableKey>& keys);

  /// True if `txn_id` currently holds `key` in at least `mode`.
  bool Holds(int64_t txn_id, TableKey key, LockMode mode) const;

  int64_t grants() const { return grants_; }
  int64_t waits() const { return waits_; }
  int64_t timeouts() const { return timeouts_; }
  size_t locked_keys() const { return live_entries_; }

 private:
  enum WaitOutcome { kGranted = 1, kTimedOut = 2 };

  static constexpr int32_t kNil = -1;

  struct HolderSlot {
    int64_t txn = 0;
    LockMode mode = LockMode::kShared;
  };
  struct WaitNode {
    uint64_t id = 0;
    int64_t txn = 0;
    LockMode mode = LockMode::kShared;
    bool upgrade = false;
    sim::Waiter* waiter = nullptr;
  };
  struct LockEntry {
    TableKey key;
    bool in_use = false;
    std::vector<HolderSlot> holders;
    // FIFO wait queue: pop advances queue_head, push appends; both vectors
    // reset (keeping capacity) when the queue drains. Upgrade requests
    // front-insert, which is rare and pays the memmove only under
    // contention.
    std::vector<WaitNode> queue;
    size_t queue_head = 0;

    size_t queue_size() const { return queue.size() - queue_head; }
  };

  /// Fibonacci-hashed home slot in index_ for `key`.
  size_t IndexHome(TableKey key) const {
    uint64_t packed =
        (static_cast<uint64_t>(static_cast<uint32_t>(key.table)) << 48) ^
        static_cast<uint64_t>(key.key);
    return static_cast<size_t>((packed * 0x9E3779B97F4A7C15ULL) >>
                               index_shift_);
  }

  int32_t FindEntry(TableKey key) const;
  int32_t AllocEntry(TableKey key);
  void FreeEntry(int32_t eid);
  void IndexInsert(TableKey key, int32_t eid);
  void IndexErase(TableKey key);
  void GrowIndexIfNeeded();

  /// The three immediate grants. `granted` is false when the request has
  /// to queue: then `eid` is its (existing) entry and `upgrade` says
  /// whether it is an S->X upgrade. A failed attempt changes nothing.
  struct Attempt {
    bool granted = false;
    int32_t eid = kNil;
    bool upgrade = false;
  };
  Attempt TryGrant(int64_t txn_id, TableKey key, LockMode mode);
  /// Queues a request whose `attempt` failed and waits. The coroutine
  /// starts at the co_await of Lock()'s result, in the same expression as
  /// the call, so the lock table has not changed since the attempt.
  sim::Task<util::Status> LockQueued(int64_t txn_id, TableKey key,
                                     LockMode mode, Attempt attempt,
                                     uint64_t trace_track);

  bool GrantableNow(const LockEntry& entry, int64_t txn, LockMode mode,
                    bool upgrade) const;
  void AddHolder(LockEntry& entry, int64_t txn, LockMode mode);
  void GrantFromQueue(int32_t eid);
  void CancelWait(TableKey key, uint64_t node_id);

  sim::Environment* env_;
  obs::TraceRecorder* recorder_;  // this thread's, resolved once
  sim::SimTime wait_timeout_;
  uint64_t next_node_id_ = 1;
  int64_t grants_ = 0;
  int64_t waits_ = 0;
  int64_t timeouts_ = 0;

  std::vector<LockEntry> entries_;    // slab; freed slots keep capacity
  std::vector<int32_t> free_entries_; // recyclable slab slots
  std::vector<int32_t> index_;        // open-addressing map key -> entry id
  size_t index_mask_ = 0;
  int index_shift_ = 64;
  size_t live_entries_ = 0;
};

}  // namespace cloudybench::txn

#endif  // CLOUDYBENCH_TXN_LOCK_MANAGER_H_

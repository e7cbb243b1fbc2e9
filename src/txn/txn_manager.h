#ifndef CLOUDYBENCH_TXN_TXN_MANAGER_H_
#define CLOUDYBENCH_TXN_TXN_MANAGER_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "sim/fast_call.h"
#include "sim/sim_time.h"
#include "sim/task.h"
#include "storage/row.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"
#include "txn/engine.h"
#include "txn/lock_manager.h"
#include "util/result.h"
#include "util/status.h"

namespace cloudybench::txn {

/// Per-operation CPU demands; SUT profiles tune these (a SQL Server page
/// walk and a PostgreSQL one do not cost the same).
struct CpuCosts {
  sim::SimTime read = sim::Micros(18);
  sim::SimTime write = sim::Micros(28);
  sim::SimTime commit = sim::Micros(20);
  /// Client<->server round trip paid per SQL statement (and per explicit
  /// COMMIT). The paper's clients run in the same VPC as the database;
  /// statement round trips are what makes transaction latency milliseconds
  /// rather than microseconds, and therefore what the concurrency knob
  /// saturates against.
  sim::SimTime client_rtt = sim::Micros(0);
};

/// The recyclable bookkeeping of one transaction: lock list, staged write
/// set, and the commit-record scratch vector. Books live in a thread-local
/// pool (DESIGN.md §4i) and keep their vector capacity across reuse, so a
/// steady-state begin/commit cycle performs zero heap allocations.
///
/// The pool is thread-local rather than TxnManager-owned on purpose:
/// Transaction handles live inside coroutine frames that the Environment
/// destroys at teardown — *after* the TxnManager member is gone in the
/// usual declaration order — so the book must outlive any manager.
struct TxnBook {
  struct WriteOp {
    storage::LogRecordType type;
    storage::TableId table;
    int64_t key;
    storage::Row row;  // after-image (unused for deletes)
  };

  std::vector<TableKey> held_locks;
  std::vector<WriteOp> writes;
  std::vector<storage::LogRecord> records;  // commit-path scratch

  void Reset() {
    held_locks.clear();
    writes.clear();
    records.clear();
  }
};

class TxnBookPool {
 public:
  struct Stats {
    size_t fresh = 0;     // pool miss -> new TxnBook
    size_t reused = 0;    // pool hit
    size_t recycled = 0;  // books returned to the pool
  };

  static TxnBook* Acquire() {
    FreeList& fl = List();
    if (!fl.books.empty()) {
      TxnBook* book = fl.books.back();
      fl.books.pop_back();
      ++fl.stats.reused;
      return book;
    }
    ++fl.stats.fresh;
    return new TxnBook();
  }

  static void Release(TxnBook* book) {
    book->Reset();  // drop contents, keep vector capacity
    FreeList& fl = List();
    fl.books.push_back(book);
    ++fl.stats.recycled;
  }

  /// This thread's counters; tests assert reuse-exactly-once with these.
  static Stats ThreadStats() { return List().stats; }

 private:
  struct FreeList {
    std::vector<TxnBook*> books;
    Stats stats;
    ~FreeList() {
      for (TxnBook* book : books) delete book;
    }
  };

  static FreeList& List() {
    thread_local FreeList list;
    return list;
  }
};

/// An open transaction. Move-only handle created by TxnManager::Begin();
/// write effects are staged in the write set and applied atomically at
/// commit (so abort is cheap and no undo is needed at this layer — undo
/// *timing* on crash is modelled by the recovery models in cb_cloud).
/// The handle owns a pooled TxnBook and recycles it on destruction.
class Transaction {
 public:
  Transaction() = default;
  Transaction(Transaction&& o) noexcept
      : id_(o.id_),
        active_(std::exchange(o.active_, false)),
        book_(std::exchange(o.book_, nullptr)),
        recorder_(o.recorder_),
        trace_track_(o.trace_track_),
        root_span_(o.root_span_) {}
  Transaction& operator=(Transaction&& o) noexcept {
    if (this != &o) {
      ReleaseBook();
      id_ = o.id_;
      active_ = std::exchange(o.active_, false);
      book_ = std::exchange(o.book_, nullptr);
      recorder_ = o.recorder_;
      trace_track_ = o.trace_track_;
      root_span_ = o.root_span_;
    }
    return *this;
  }
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;
  ~Transaction() { ReleaseBook(); }

  int64_t id() const { return id_; }
  bool active() const { return active_; }

 private:
  friend class TxnManager;

  void ReleaseBook() {
    if (book_ != nullptr) {
      TxnBookPool::Release(book_);
      book_ = nullptr;
    }
  }

  int64_t id_ = 0;
  bool active_ = false;
  TxnBook* book_ = nullptr;
  /// Observability scope, resolved once at Begin: the thread's recorder
  /// (nullptr = tracing was off — every per-op span then costs one null
  /// test instead of a thread-local lookup), the track all of this
  /// transaction's spans land on, and the open root (kTxn) span.
  obs::TraceRecorder* recorder_ = nullptr;
  uint64_t trace_track_ = 0;
  obs::SpanHandle root_span_;
};

/// Strict two-phase-locking transaction manager with write-set buffering
/// and read-your-own-writes. One TxnManager runs per compute node; all
/// physical costs flow through the node's Engine implementation.
class TxnManager {
 public:
  TxnManager(Engine* engine, CpuCosts costs);

  TxnManager(const TxnManager&) = delete;
  TxnManager& operator=(const TxnManager&) = delete;

  /// `trace_label` tags the transaction's root trace span (the workload
  /// passes its TxnType ordinal); -1 = untagged. A plain int keeps the
  /// transaction layer free of any dependency on the workload's enum.
  Transaction Begin(int32_t trace_label = -1);

  /// Point read. `for_update` takes the X lock up front (SELECT ... FOR
  /// UPDATE), which is how T2 avoids the classic S->X upgrade deadlock.
  /// Returns kNotFound when the key does not exist (txn stays active),
  /// kAborted on lock timeout, kUnavailable during fail-over.
  sim::Task<util::Status> Get(Transaction* txn, storage::SyntheticTable* table,
                              int64_t key, storage::Row* out,
                              bool for_update = false);

  sim::Task<util::Status> Insert(Transaction* txn,
                                 storage::SyntheticTable* table,
                                 storage::Row row);
  sim::Task<util::Status> Update(Transaction* txn,
                                 storage::SyntheticTable* table,
                                 storage::Row row);
  sim::Task<util::Status> Delete(Transaction* txn,
                                 storage::SyntheticTable* table, int64_t key);

  /// Two-phase commit against the engine: force the log (group commit),
  /// apply the write set, release locks. Read-only transactions skip the
  /// log force and commit at the call, without a coroutine frame. On error
  /// the transaction is aborted internally.
  sim::FastCall<util::Status> Commit(Transaction* txn);

  /// Releases locks and discards staged writes.
  void Abort(Transaction* txn);

  int64_t commits() const { return commits_; }
  int64_t aborts() const { return aborts_; }
  int64_t active_txns() const { return active_txns_; }

  /// Called once per committed *write* transaction, at the client-ack point:
  /// after the engine's log force and write-set apply, immediately before
  /// Commit returns OK. The span is the transaction's write set in staging
  /// order and is only valid for the duration of the call. Chaos oracles
  /// use this to ledger exactly what the client was acknowledged
  /// (src/chaos/oracles.h); read-only commits do not fire it.
  using CommitListener = std::function<void(std::span<const TxnBook::WriteOp>)>;
  void SetCommitListener(CommitListener listener) {
    commit_listener_ = std::move(listener);
  }

 private:
  /// Admission check on a transaction's first operation only (no held
  /// locks, no staged writes yet): a shed transaction has cost nothing.
  /// Aborts the transaction and returns the engine's status when refused.
  util::Status AdmitFirstOp(Transaction* txn);
  /// Finds the latest staged write for (table,key); nullptr if none.
  const TxnBook::WriteOp* FindStaged(const Transaction& txn,
                                     storage::TableId table,
                                     int64_t key) const;
  /// True if the key exists from this txn's point of view.
  bool VisiblyExists(const Transaction& txn, storage::SyntheticTable* table,
                     int64_t key) const;
  /// Takes `key` in `mode` and records it in the held-lock list. A lock
  /// granted at the call (LockManager::Lock) is recorded at the call too;
  /// a queued request awaits the lock in LockKeyQueued.
  sim::FastCall<util::Status> LockKey(Transaction* txn, TableKey key,
                                      LockMode mode);
  sim::Task<util::Status> LockKeyQueued(Transaction* txn, TableKey key,
                                        sim::FastCall<util::Status> lock);
  /// Adds `key` to the held-lock list once.
  static void NoteHeld(Transaction* txn, TableKey key);
  /// Commit() of a transaction with writes.
  sim::Task<util::Status> CommitTask(Transaction* txn);
  /// Closes the root trace span (marking it committed on success). Called
  /// from both Commit paths and from Abort; ties at the same sim time as
  /// still-open child spans are legal nesting.
  void FinishTxnTrace(Transaction* txn, bool committed);

  Engine* engine_;
  CpuCosts costs_;
  CommitListener commit_listener_;
  int64_t next_txn_id_ = 1;
  int64_t commits_ = 0;
  int64_t aborts_ = 0;
  int64_t active_txns_ = 0;
};

}  // namespace cloudybench::txn

#endif  // CLOUDYBENCH_TXN_TXN_MANAGER_H_

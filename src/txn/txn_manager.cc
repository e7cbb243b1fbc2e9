#include "txn/txn_manager.h"

#include <utility>

#include "util/logging.h"

namespace cloudybench::txn {

namespace {
using storage::LogRecord;
using storage::LogRecordType;
using storage::Row;
using storage::SyntheticTable;
using util::Status;
}  // namespace

TxnManager::TxnManager(Engine* engine, CpuCosts costs)
    : engine_(engine), costs_(costs) {
  CB_CHECK(engine != nullptr);
}

Transaction TxnManager::Begin(int32_t trace_label) {
  Transaction txn;
  txn.id_ = next_txn_id_++;
  txn.active_ = true;
  // The pool's Release() already reset the book, so Begin takes it as-is:
  // the begin path performs no clears of its own.
  txn.book_ = TxnBookPool::Acquire();
  ++active_txns_;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();
  if (recorder.enabled()) {
    // Resolve the obs scope once per transaction: ops and commit reuse the
    // cached recorder pointer instead of re-fetching the thread-local. One
    // track per transaction: its spans nest properly on the track, and the
    // breakdown analyzer can treat each track as one flame graph.
    txn.recorder_ = &recorder;
    txn.trace_track_ = recorder.NewTrack();
    txn.root_span_ = recorder.Begin(txn.trace_track_, obs::Layer::kTxn, "txn",
                                    engine_->env()->Now(), trace_label);
  }
  return txn;
}

void TxnManager::FinishTxnTrace(Transaction* txn, bool committed) {
  obs::TraceRecorder* recorder = txn->recorder_;
  if (recorder == nullptr) return;
  if (committed) recorder->MarkCommitted(txn->root_span_);
  recorder->End(txn->root_span_, engine_->env()->Now());
  txn->root_span_ = obs::SpanHandle{};
}

util::Status TxnManager::AdmitFirstOp(Transaction* txn) {
  if (!txn->book_->held_locks.empty() || !txn->book_->writes.empty()) {
    return Status::OK();
  }
  Status admitted = engine_->Admit();
  if (!admitted.ok()) Abort(txn);
  return admitted;
}

const TxnBook::WriteOp* TxnManager::FindStaged(const Transaction& txn,
                                               storage::TableId table,
                                               int64_t key) const {
  const std::vector<TxnBook::WriteOp>& writes = txn.book_->writes;
  for (auto it = writes.rbegin(); it != writes.rend(); ++it) {
    if (it->table == table && it->key == key) return &*it;
  }
  return nullptr;
}

bool TxnManager::VisiblyExists(const Transaction& txn, SyntheticTable* table,
                               int64_t key) const {
  const TxnBook::WriteOp* staged = FindStaged(txn, table->id(), key);
  if (staged != nullptr) return staged->type != LogRecordType::kDelete;
  return table->Exists(key);
}

sim::FastCall<util::Status> TxnManager::LockKey(Transaction* txn,
                                                TableKey key, LockMode mode) {
  sim::FastCall<Status> lock = engine_->lock_manager()->Lock(
      txn->id_, key, mode, txn->trace_track_);
  if (!lock.ready()) return LockKeyQueued(txn, key, std::move(lock));
  Status s = lock.await_resume();
  if (s.ok()) NoteHeld(txn, key);
  return s;
}

sim::Task<util::Status> TxnManager::LockKeyQueued(
    Transaction* txn, TableKey key, sim::FastCall<util::Status> lock) {
  Status s = co_await lock;
  if (s.ok()) NoteHeld(txn, key);
  co_return s;
}

void TxnManager::NoteHeld(Transaction* txn, TableKey key) {
  // Track each key once; ReleaseAll is idempotent per key anyway but the
  // held list should stay small.
  for (const TableKey& held : txn->book_->held_locks) {
    if (held == key) return;
  }
  txn->book_->held_locks.push_back(key);
}

sim::Task<util::Status> TxnManager::Get(Transaction* txn,
                                        SyntheticTable* table, int64_t key,
                                        Row* out, bool for_update) {
  CB_CHECK(txn->active_);
  obs::CachedSpanScope op_span(txn->recorder_, engine_->env(),
                               txn->trace_track_, obs::Layer::kOp, "op.get");
  if (costs_.client_rtt.us > 0) {
    obs::CachedSpanScope rtt_span(txn->recorder_, engine_->env(),
                                  txn->trace_track_, obs::Layer::kNet,
                                  "net.client_rtt");
    co_await engine_->env()->Delay(costs_.client_rtt);
  }
  if (!engine_->available()) {
    Abort(txn);
    co_return Status::Unavailable("node down");
  }
  if (Status admitted = AdmitFirstOp(txn); !admitted.ok()) {
    co_return admitted;
  }
  engine_->set_trace_track(txn->trace_track_);
  co_await engine_->ChargeCpu(costs_.read);
  Status locked;
  {
    obs::CachedSpanScope lock_span(txn->recorder_, engine_->env(),
                                   txn->trace_track_, obs::Layer::kLock,
                                   "lock.wait");
    locked = co_await LockKey(
        txn, TableKey{table->id(), key},
        for_update ? LockMode::kExclusive : LockMode::kShared);
  }
  if (!locked.ok()) {
    Abort(txn);
    co_return locked;
  }
  engine_->set_trace_track(txn->trace_track_);
  Status page = co_await engine_->AccessPage(
      storage::PageId{table->id(), table->PageOf(key)}, false);
  if (!page.ok()) {
    Abort(txn);
    co_return page;
  }
  // Read-your-own-writes.
  const TxnBook::WriteOp* staged = FindStaged(*txn, table->id(), key);
  if (staged != nullptr) {
    if (staged->type == LogRecordType::kDelete) {
      co_return Status::NotFound("deleted in this transaction");
    }
    *out = staged->row;
    co_return Status::OK();
  }
  std::optional<Row> row = table->Get(key);
  if (!row.has_value()) co_return Status::NotFound(table->name());
  *out = *row;
  co_return Status::OK();
}

sim::Task<util::Status> TxnManager::Insert(Transaction* txn,
                                           SyntheticTable* table, Row row) {
  CB_CHECK(txn->active_);
  obs::CachedSpanScope op_span(txn->recorder_, engine_->env(),
                               txn->trace_track_, obs::Layer::kOp,
                               "op.insert");
  if (costs_.client_rtt.us > 0) {
    obs::CachedSpanScope rtt_span(txn->recorder_, engine_->env(),
                                  txn->trace_track_, obs::Layer::kNet,
                                  "net.client_rtt");
    co_await engine_->env()->Delay(costs_.client_rtt);
  }
  if (!engine_->available()) {
    Abort(txn);
    co_return Status::Unavailable("node down");
  }
  if (Status admitted = AdmitFirstOp(txn); !admitted.ok()) {
    co_return admitted;
  }
  engine_->set_trace_track(txn->trace_track_);
  co_await engine_->ChargeCpu(costs_.write);
  Status locked;
  {
    obs::CachedSpanScope lock_span(txn->recorder_, engine_->env(),
                                   txn->trace_track_, obs::Layer::kLock,
                                   "lock.wait");
    locked = co_await LockKey(txn, TableKey{table->id(), row.key},
                              LockMode::kExclusive);
  }
  if (!locked.ok()) {
    Abort(txn);
    co_return locked;
  }
  engine_->set_trace_track(txn->trace_track_);
  Status page = co_await engine_->AccessPage(
      storage::PageId{table->id(), table->PageOf(row.key)}, true);
  if (!page.ok()) {
    Abort(txn);
    co_return page;
  }
  if (VisiblyExists(*txn, table, row.key)) {
    co_return Status::AlreadyExists(table->name() + " key " +
                                    std::to_string(row.key));
  }
  txn->book_->writes.push_back(
      TxnBook::WriteOp{LogRecordType::kInsert, table->id(), row.key, row});
  co_return Status::OK();
}

sim::Task<util::Status> TxnManager::Update(Transaction* txn,
                                           SyntheticTable* table, Row row) {
  CB_CHECK(txn->active_);
  obs::CachedSpanScope op_span(txn->recorder_, engine_->env(),
                               txn->trace_track_, obs::Layer::kOp,
                               "op.update");
  if (costs_.client_rtt.us > 0) {
    obs::CachedSpanScope rtt_span(txn->recorder_, engine_->env(),
                                  txn->trace_track_, obs::Layer::kNet,
                                  "net.client_rtt");
    co_await engine_->env()->Delay(costs_.client_rtt);
  }
  if (!engine_->available()) {
    Abort(txn);
    co_return Status::Unavailable("node down");
  }
  if (Status admitted = AdmitFirstOp(txn); !admitted.ok()) {
    co_return admitted;
  }
  engine_->set_trace_track(txn->trace_track_);
  co_await engine_->ChargeCpu(costs_.write);
  Status locked;
  {
    obs::CachedSpanScope lock_span(txn->recorder_, engine_->env(),
                                   txn->trace_track_, obs::Layer::kLock,
                                   "lock.wait");
    locked = co_await LockKey(txn, TableKey{table->id(), row.key},
                              LockMode::kExclusive);
  }
  if (!locked.ok()) {
    Abort(txn);
    co_return locked;
  }
  engine_->set_trace_track(txn->trace_track_);
  Status page = co_await engine_->AccessPage(
      storage::PageId{table->id(), table->PageOf(row.key)}, true);
  if (!page.ok()) {
    Abort(txn);
    co_return page;
  }
  if (!VisiblyExists(*txn, table, row.key)) {
    co_return Status::NotFound(table->name() + " key " +
                               std::to_string(row.key));
  }
  txn->book_->writes.push_back(
      TxnBook::WriteOp{LogRecordType::kUpdate, table->id(), row.key, row});
  co_return Status::OK();
}

sim::Task<util::Status> TxnManager::Delete(Transaction* txn,
                                           SyntheticTable* table,
                                           int64_t key) {
  CB_CHECK(txn->active_);
  obs::CachedSpanScope op_span(txn->recorder_, engine_->env(),
                               txn->trace_track_, obs::Layer::kOp,
                               "op.delete");
  if (costs_.client_rtt.us > 0) {
    obs::CachedSpanScope rtt_span(txn->recorder_, engine_->env(),
                                  txn->trace_track_, obs::Layer::kNet,
                                  "net.client_rtt");
    co_await engine_->env()->Delay(costs_.client_rtt);
  }
  if (!engine_->available()) {
    Abort(txn);
    co_return Status::Unavailable("node down");
  }
  if (Status admitted = AdmitFirstOp(txn); !admitted.ok()) {
    co_return admitted;
  }
  engine_->set_trace_track(txn->trace_track_);
  co_await engine_->ChargeCpu(costs_.write);
  Status locked;
  {
    obs::CachedSpanScope lock_span(txn->recorder_, engine_->env(),
                                   txn->trace_track_, obs::Layer::kLock,
                                   "lock.wait");
    locked = co_await LockKey(txn, TableKey{table->id(), key},
                              LockMode::kExclusive);
  }
  if (!locked.ok()) {
    Abort(txn);
    co_return locked;
  }
  engine_->set_trace_track(txn->trace_track_);
  Status page = co_await engine_->AccessPage(
      storage::PageId{table->id(), table->PageOf(key)}, true);
  if (!page.ok()) {
    Abort(txn);
    co_return page;
  }
  if (!VisiblyExists(*txn, table, key)) {
    co_return Status::NotFound(table->name() + " key " + std::to_string(key));
  }
  txn->book_->writes.push_back(
      TxnBook::WriteOp{LogRecordType::kDelete, table->id(), key, Row{}});
  co_return Status::OK();
}

sim::FastCall<util::Status> TxnManager::Commit(Transaction* txn) {
  CB_CHECK(txn->active_);
  if (!txn->book_->writes.empty()) return CommitTask(txn);
  // Read-only autocommit: no COMMIT statement crosses the wire.
  engine_->lock_manager()->ReleaseAll(txn->id_, txn->book_->held_locks);
  txn->active_ = false;
  --active_txns_;
  ++commits_;
  FinishTxnTrace(txn, /*committed=*/true);
  return Status::OK();
}

sim::Task<util::Status> TxnManager::CommitTask(Transaction* txn) {
  TxnBook* book = txn->book_;
  obs::CachedSpanScope commit_span(txn->recorder_, engine_->env(),
                                   txn->trace_track_, obs::Layer::kCommit,
                                   "txn.commit");
  if (costs_.client_rtt.us > 0) {
    obs::CachedSpanScope rtt_span(txn->recorder_, engine_->env(),
                                  txn->trace_track_, obs::Layer::kNet,
                                  "net.client_rtt");
    co_await engine_->env()->Delay(costs_.client_rtt);
  }
  engine_->set_trace_track(txn->trace_track_);
  co_await engine_->ChargeCpu(costs_.commit);
  if (!engine_->available()) {
    Abort(txn);
    co_return Status::Unavailable("node down at commit");
  }

  // Build the commit batch in the book's recycled scratch vector: after the
  // first few transactions on a thread no commit allocates here. The vector
  // is empty on entry — TxnBookPool::Release is the single reset point, so
  // neither Begin nor Commit pays a redundant clear.
  std::vector<LogRecord>& records = book->records;
  records.reserve(book->writes.size() + 1);
  for (const TxnBook::WriteOp& op : book->writes) {
    LogRecord rec;
    rec.txn_id = txn->id_;
    rec.type = op.type;
    rec.table = op.table;
    rec.key = op.key;
    rec.after = op.row;
    records.push_back(rec);
  }
  LogRecord commit_rec;
  commit_rec.txn_id = txn->id_;
  commit_rec.type = LogRecordType::kCommit;
  records.push_back(commit_rec);

  engine_->set_trace_track(txn->trace_track_);
  Status durable = co_await engine_->CommitRecords(&records);
  if (!durable.ok()) {
    Abort(txn);
    co_return durable;
  }

  // Apply the write set. Locks guarantee these succeed.
  storage::TableSet* tables = engine_->tables();
  for (const TxnBook::WriteOp& op : book->writes) {
    SyntheticTable* table = tables->FindById(op.table);
    CB_CHECK(table != nullptr);
    switch (op.type) {
      case LogRecordType::kInsert:
        CB_CHECK_OK(table->Insert(op.row));
        break;
      case LogRecordType::kUpdate:
        CB_CHECK_OK(table->Update(op.row));
        break;
      case LogRecordType::kDelete:
        CB_CHECK_OK(table->Delete(op.key));
        break;
      case LogRecordType::kCommit:
        break;
    }
  }

  if (commit_listener_) {
    commit_listener_(
        std::span<const TxnBook::WriteOp>(book->writes.data(),
                                          book->writes.size()));
  }

  engine_->lock_manager()->ReleaseAll(txn->id_, book->held_locks);
  txn->active_ = false;
  --active_txns_;
  ++commits_;
  FinishTxnTrace(txn, /*committed=*/true);
  co_return Status::OK();
}

void TxnManager::Abort(Transaction* txn) {
  if (!txn->active_) return;
  engine_->lock_manager()->ReleaseAll(txn->id_, txn->book_->held_locks);
  txn->book_->writes.clear();
  txn->active_ = false;
  --active_txns_;
  ++aborts_;
  // The abort happens while op/commit child spans are still open; they end
  // at the same simulated time, which the breakdown treats as legal nesting.
  FinishTxnTrace(txn, /*committed=*/false);
}

}  // namespace cloudybench::txn

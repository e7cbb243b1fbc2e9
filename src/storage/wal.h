#ifndef CLOUDYBENCH_STORAGE_WAL_H_
#define CLOUDYBENCH_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/environment.h"
#include "sim/task.h"
#include "storage/disk.h"
#include "storage/row.h"

namespace cloudybench::obs {
class TraceRecorder;
}  // namespace cloudybench::obs

namespace cloudybench::storage {

enum class LogRecordType { kInsert, kUpdate, kDelete, kCommit };

/// One redo record. DML records carry the after-image; the commit record
/// makes the transaction's records eligible for shipping to replicas.
struct LogRecord {
  int64_t lsn = 0;
  int64_t txn_id = 0;
  LogRecordType type = LogRecordType::kCommit;
  TableId table = 0;
  int64_t key = 0;
  Row after;
  /// Simulated instant at which the owning transaction committed (stamped
  /// when the record becomes durable); lag time is measured against this.
  sim::SimTime commit_time{0};

  int32_t size_bytes() const {
    return type == LogRecordType::kCommit ? 32 : 96;
  }
};

/// Write-ahead log with group commit.
///
/// Append() buffers records and assigns LSNs; WaitDurable(lsn) forces the
/// log. Concurrent committers at the same instant share one device write
/// (group commit), which is what lets commit throughput exceed the log
/// device's IOPS. Once records are durable they are handed, in LSN order
/// and as contiguous spans, to every ship listener (the replication
/// streams).
///
/// Hot-path layout (DESIGN.md §4i/§4k): the pending buffer is a FIFO over
/// fixed-size record chunks. Appends write straight into the tail chunk, so
/// a growing backlog never mass-copies earlier records (the flat-vector
/// layout's doubling reallocs were the BM_WalAppend 50→115 ns regression);
/// drained chunks are recycled through a free list, so steady-state logging
/// does not allocate. Unflushed bytes are a running counter, and a whole
/// commit batch appends in one call. Durable waiters are compacted
/// *stably*: their wake order assigns event sequence numbers, so it is part
/// of the deterministic schedule and must stay FIFO.
class LogManager {
 public:
  /// `device` is the log store: local WAL disk (RDS), the storage service's
  /// log tier (CDB1/CDB3), or a dedicated log service (CDB2).
  LogManager(sim::Environment* env, DiskDevice* device);

  LogManager(const LogManager&) = delete;
  LogManager& operator=(const LogManager&) = delete;

  /// Buffers a copy of the record, assigns and returns its LSN.
  int64_t Append(const LogRecord& record) {
    // Fast path: room in the tail chunk (the overwhelmingly common case);
    // everything else — chunk turnover, free-list recycling — is cold.
    if (tail_off_ == kChunkRecords) [[unlikely]] {
      PushTailChunk();
    }
    LogRecord& rec = chunks_.back()[tail_off_++];
    rec = record;
    rec.lsn = next_lsn_++;
    ++records_appended_;
    ++pending_count_;
    pending_bytes_ += rec.size_bytes();
    return rec.lsn;
  }

  /// Appends a whole commit batch; returns the last LSN (0 if empty).
  /// Equivalent to calling Append() per record, minus the per-call
  /// bookkeeping — this is the txn commit path.
  int64_t AppendBatch(const std::vector<LogRecord>& records);

  /// Resumes once every record with LSN <= `lsn` is durable.
  sim::Task<void> WaitDurable(int64_t lsn);

  /// Durable records are handed to listeners in LSN order as contiguous
  /// spans (one span per pending-buffer chunk segment, so a flush batch is
  /// usually a single call). Listeners must not append to this log from
  /// inside the callback. Spans are only valid for the duration of the
  /// call.
  void AddShipListener(std::function<void(std::span<const LogRecord>)> listener);

  int64_t appended_lsn() const { return next_lsn_ - 1; }
  int64_t flushed_lsn() const { return flushed_lsn_; }
  int64_t flush_batches() const { return flush_batches_; }
  int64_t records_appended() const { return records_appended_; }

  /// Unflushed log bytes — the recovery model uses this as the redo backlog
  /// on a crash. O(1): maintained as a running counter.
  int64_t pending_bytes() const { return pending_bytes_; }

  /// Chunk allocations that could not be served from the free list — the
  /// pending buffer's only allocation source (zero in steady state once the
  /// backlog high-water mark is reached).
  int64_t chunk_allocs() const { return chunk_allocs_; }

 private:
  /// Pending-buffer chunk size, in records. 4096 × ~100 B keeps a chunk
  /// well under typical L2 while making chunk turnover (the only non-inline
  /// branch on the append path) a once-per-4096 event.
  static constexpr size_t kChunkRecords = 4096;

  void PushTailChunk();
  sim::Process FlushLoop();
  /// Lazily allocated trace track ("wal") for flush-batch spans; re-made
  /// when the recorder epoch changes (Clear() between cells).
  uint64_t TraceTrack();

  sim::Environment* env_;
  obs::TraceRecorder* recorder_;  // this thread's, resolved once
  DiskDevice* device_;
  uint64_t trace_track_ = 0;
  uint64_t trace_epoch_ = 0;
  int64_t next_lsn_ = 1;
  int64_t flushed_lsn_ = 0;
  int64_t records_appended_ = 0;
  int64_t flush_batches_ = 0;
  int64_t pending_bytes_ = 0;
  int64_t pending_count_ = 0;
  int64_t chunk_allocs_ = 0;
  bool flushing_ = false;
  // FIFO of records in (flushed_lsn_, next_lsn_) as a chunk list: appends
  // fill chunks_.back() at tail_off_, the flush loop drains chunks_.front()
  // from head_off_. Fully drained chunks go to the free list; a fully
  // drained buffer resets to one chunk with zeroed offsets.
  std::vector<std::unique_ptr<LogRecord[]>> chunks_;
  std::vector<std::unique_ptr<LogRecord[]>> free_chunks_;
  size_t head_off_ = 0;
  size_t tail_off_ = kChunkRecords;  // forces the first chunk's allocation
  struct DurableWaiter {
    int64_t lsn;
    sim::Waiter* waiter;
  };
  std::vector<DurableWaiter> waiters_;
  std::vector<std::function<void(std::span<const LogRecord>)>> ship_listeners_;
};

}  // namespace cloudybench::storage

#endif  // CLOUDYBENCH_STORAGE_WAL_H_

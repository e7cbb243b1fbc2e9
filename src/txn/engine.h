#ifndef CLOUDYBENCH_TXN_ENGINE_H_
#define CLOUDYBENCH_TXN_ENGINE_H_

#include <vector>

#include "sim/environment.h"
#include "sim/fast_call.h"
#include "sim/sim_time.h"
#include "sim/task.h"
#include "storage/row.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"
#include "txn/lock_manager.h"
#include "util/status.h"

namespace cloudybench::txn {

/// The seam between the transaction layer and the cloud substrate.
///
/// TxnManager drives transaction logic (locking, write-set staging, commit
/// protocol); the Engine — implemented by cloud::ComputeNode — supplies the
/// physical behaviour that differs across the paper's five architectures:
/// how a page access costs (local buffer hit, local NVMe, disaggregated
/// storage over TCP, remote buffer pool over RDMA), how CPU is charged
/// against the node's scalable vCores, and where commit log records go
/// (local WAL, log service, storage-service log tier).
class Engine {
 public:
  virtual ~Engine() = default;

  virtual sim::Environment* env() = 0;
  virtual storage::TableSet* tables() = 0;
  virtual LockManager* lock_manager() = 0;

  /// True while the node can serve requests (false during fail-over).
  virtual bool available() const = 0;

  /// Admission control, consulted by the TxnManager before a transaction's
  /// first operation (never mid-transaction: shedding a transaction that
  /// already holds locks would waste the work it queued for). The base
  /// engine admits everything; cloud::ComputeNode returns
  /// kResourceExhausted while load shedding is active (graceful
  /// degradation, DESIGN.md §4g).
  virtual util::Status Admit() { return util::Status::OK(); }

  /// Charges `demand` of CPU work against the node's vCores (queueing under
  /// load, stretching under fractional serverless capacity). A FastCall
  /// (sim/fast_call.h), so a free CPU slot costs no coroutine frame.
  virtual sim::FastCall<void> ChargeCpu(sim::SimTime demand) = 0;

  /// Performs one page access: buffer-pool lookup plus the architecture's
  /// miss path. Returns kUnavailable when the node is down. A FastCall, so
  /// an engine can finish a buffer hit at the call.
  virtual sim::FastCall<util::Status> AccessPage(storage::PageId page,
                                                 bool for_write) = 0;

  /// Makes a committing transaction's records durable and ships them to
  /// replicas. Only valid on the read-write node. The vector is borrowed
  /// from the caller's pooled commit scratch (TxnBook::records) and must
  /// stay alive until the returned task completes; the engine may read the
  /// records but not resize the vector.
  virtual sim::Task<util::Status> CommitRecords(
      const std::vector<storage::LogRecord>* records) = 0;

  /// Trace-track context for the observability layer. The TxnManager sets
  /// the calling transaction's track synchronously before *every* engine
  /// co_await (a value set once per transaction would go stale: other
  /// transactions interleave at suspension points). The engine reads it at
  /// the call or in its coroutine's synchronous prologue — sound because
  /// the call is awaited at once and sim::Task is lazy-start with symmetric
  /// transfer, so the callee's prologue runs inside the caller's resume,
  /// before any interleaving can occur.
  void set_trace_track(uint64_t track) { trace_track_ = track; }
  uint64_t trace_track() const { return trace_track_; }

 private:
  uint64_t trace_track_ = 0;
};

}  // namespace cloudybench::txn

#endif  // CLOUDYBENCH_TXN_ENGINE_H_

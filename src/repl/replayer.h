#ifndef CLOUDYBENCH_REPL_REPLAYER_H_
#define CLOUDYBENCH_REPL_REPLAYER_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "net/network.h"
#include "obs/trace.h"
#include "sim/environment.h"
#include "sim/resource.h"
#include "sim/task.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"
#include "util/flat_ring.h"
#include "util/stats.h"

namespace cloudybench::repl {

/// How a replica materializes the primary's changes. These are the three
/// replication designs the paper's lag-time evaluation contrasts (§III-F):
enum class ReplayMode {
  /// One replay worker applies records in LSN order (CDB1, CDB2, AWS RDS).
  kSequential,
  /// Records are hash-partitioned over lanes and replayed concurrently
  /// (CDB3's parallel log replay; ~10x lower lag).
  kParallel,
  /// Memory disaggregation (CDB4): the RDMA-attached remote buffer pool is
  /// updated by cache-invalidation messages — effectively massively
  /// parallel, microsecond-scale application.
  kRemoteInvalidation,
};

const char* ReplayModeName(ReplayMode mode);

struct ReplayConfig {
  ReplayMode mode = ReplayMode::kSequential;
  int parallel_lanes = 4;
  /// CPU work to apply one record on the replayer's engine.
  sim::SimTime apply_cost = sim::Micros(30);
  /// Extra per-record path latency: CDB2 pays a second hop because its log
  /// service and page service are separate tiers.
  sim::SimTime extra_hop_latency = sim::Micros(0);
  /// Log-shipping cadence: records leave the primary at batch boundaries of
  /// this interval (0 = continuous per-record shipping). This is the main
  /// driver of the orders-of-magnitude lag differences in the paper's
  /// §III-F: RDMA invalidation ships ~continuously, parallel-replay CDB3
  /// ships every few ms, sequential CDB1 every few hundred ms, and CDB2's
  /// log->page materialization cadence is measured in seconds.
  sim::SimTime ship_interval = sim::Micros(0);
};

/// One replica's replay pipeline.
///
/// The primary's LogManager ship-listener calls Ship() with each durable
/// flush batch; the records cross `ship_link`, queue for the replayer's
/// CPU, and are applied to the replica's own TableSet. Visibility is
/// tracked as a continuous LSN watermark, and per-DML lag statistics (apply
/// time minus commit time) feed the paper's C-Score.
///
/// Hot-path layout (DESIGN.md §4k): shipping is batched. Ship() stages a
/// whole flush batch synchronously into a flat ring; one persistent ship
/// loop reserves link bandwidth for every due record at its batch boundary
/// (Link::ReserveTransfer — same FIFO virtual queue the old per-record
/// coroutines serialized on, so timing is identical) and one persistent
/// delivery loop hands each record to its replay lane at its arrival
/// instant. Every queue in the pipeline — staged, in-flight, per-lane,
/// pending-LSN window — is a FlatRing of POD entries, so the steady state
/// performs zero heap allocations (asserted by a test via `arena_grows()`).
class Replayer {
 public:
  /// `replica_tables` is the replica's private copy (loaded identically to
  /// the primary); `replay_cpu` is whoever pays for replay — the page
  /// server's CPU for disaggregated designs, the RO node's for RDS.
  Replayer(sim::Environment* env, storage::TableSet* replica_tables,
           net::Link* ship_link, sim::SlotResource* replay_cpu,
           ReplayConfig config);
  ~Replayer();

  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  /// Ship-listener entry point (synchronous enqueue of a whole durable
  /// batch; the transfer and apply happen asynchronously in simulated
  /// time). Records must arrive in LSN order.
  void Ship(std::span<const storage::LogRecord> records);

  /// Single-record convenience (equivalent to a span of one).
  void Ship(const storage::LogRecord& record) {
    Ship(std::span<const storage::LogRecord>(&record, 1));
  }

  /// Event-journal identity ("cluster.CDB2#0.repl0"); set by the owning
  /// cluster. Backlog high-water marks are journaled under it.
  void SetScope(std::string scope) { scope_ = std::move(scope); }

  // ---- fault hook (src/fault) ----
  /// Replay stall: while stalled, lanes stop applying — records still ship
  /// and queue, so the backlog (and replica lag) grows. Resuming wakes every
  /// lane; journaled as "replay.stall" / "replay.resume".
  void SetStalled(bool stalled);
  bool stalled() const { return stalled_; }

  /// All records with LSN <= applied_lsn() are visible on the replica.
  int64_t applied_lsn() const;
  int64_t records_applied() const { return records_applied_; }
  /// Records shipped but not yet applied — the replay backlog gauge the
  /// metric registry exports.
  int64_t backlog() const { return backlog_; }
  /// True once every shipped record has been applied and the pipeline is
  /// not stalled — the convergence oracle's drain condition (src/chaos).
  bool Drained() const { return !stalled_ && backlog_ == 0; }

  /// Total ring growth events across the pipeline's queues — its only
  /// steady-state allocation source. A stable count over a measurement
  /// window is the zero-allocation proof the perf tests assert.
  int64_t arena_grows() const;

  /// Lag statistics in simulated milliseconds, by DML type.
  const util::RunningStat& InsertLag() const { return insert_lag_; }
  const util::RunningStat& UpdateLag() const { return update_lag_; }
  const util::RunningStat& DeleteLag() const { return delete_lag_; }

  storage::TableSet* replica_tables() const { return tables_; }

 private:
  /// A staged record waiting for its shipping-batch boundary.
  struct ShipEntry {
    storage::LogRecord rec;
    int64_t depart_us = 0;
    uint64_t ticket = 0;
  };
  /// A record whose link bandwidth is reserved; delivered at `arrive_us`.
  struct InflightEntry {
    storage::LogRecord rec;
    int64_t arrive_us = 0;
    uint64_t ticket = 0;
  };
  /// A record queued on its replay lane.
  struct LaneEntry {
    storage::LogRecord rec;
    uint64_t ticket = 0;
  };
  /// Pending-LSN window slot: tickets index this ring directly, so marking
  /// a record applied is O(1) even when lanes finish out of order.
  struct PendingEntry {
    int64_t lsn = 0;
    bool applied = false;
  };

  int LaneFor(const storage::LogRecord& record) const;
  /// Lazily allocates lane `lane`'s trace track ("replay/lane<i>");
  /// epoch-guarded because the Replayer outlives TraceRecorder::Clear().
  /// `recorder` is the caller's already-resolved (and enabled) recorder.
  uint64_t LaneTrack(obs::TraceRecorder& recorder, int lane);
  sim::Process ShipLoop();
  sim::Process DeliverLoop();
  sim::Process LaneLoop(int lane);
  void MarkApplied(uint64_t ticket);
  void ApplyToTables(const storage::LogRecord& record);
  void RecordLag(const storage::LogRecord& record);

  sim::Environment* env_;
  storage::TableSet* tables_;
  net::Link* ship_link_;
  sim::SlotResource* replay_cpu_;
  ReplayConfig config_;
  int lanes_;

  util::FlatRing<ShipEntry> staged_;
  sim::Waiter* ship_waiter_ = nullptr;
  util::FlatRing<InflightEntry> inflight_;
  sim::Waiter* deliver_waiter_ = nullptr;
  std::vector<util::FlatRing<LaneEntry>> lane_queues_;
  std::vector<sim::Waiter*> lane_waiters_;
  bool stalled_ = false;
  std::vector<sim::Waiter*> stall_waiters_;

  /// Shipped-but-unapplied window. Entries stay until the head is applied;
  /// `backlog_` counts the live (unapplied) ones, matching the old
  /// std::set<int64_t> gauge exactly.
  util::FlatRing<PendingEntry> pending_;
  uint64_t pending_head_ticket_ = 0;
  uint64_t next_ticket_ = 0;
  int64_t backlog_ = 0;
  int64_t last_shipped_lsn_ = 0;
  int64_t records_applied_ = 0;

  std::string scope_ = "repl";
  /// Next backlog size worth journaling; doubles on each emission so a
  /// runaway backlog produces O(log n) "replay.backlog_hwm" events.
  int64_t backlog_hwm_next_ = 64;

  util::RunningStat insert_lag_;
  util::RunningStat update_lag_;
  util::RunningStat delete_lag_;

  std::vector<uint64_t> lane_tracks_;
  uint64_t trace_epoch_ = 0;
};

}  // namespace cloudybench::repl

#endif  // CLOUDYBENCH_REPL_REPLAYER_H_

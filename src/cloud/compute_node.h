#ifndef CLOUDYBENCH_CLOUD_COMPUTE_NODE_H_
#define CLOUDYBENCH_CLOUD_COMPUTE_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "cloud/autoscaler.h"
#include "cloud/pricing.h"
#include "cloud/services.h"
#include "net/network.h"
#include "sim/environment.h"
#include "sim/resource.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"
#include "txn/engine.h"
#include "txn/lock_manager.h"
#include "txn/txn_manager.h"
#include "util/random.h"

namespace cloudybench::cloud {

/// What a local-buffer miss costs — the core architectural difference
/// between the paper's SUTs.
enum class MissPath {
  /// Coupled compute+storage (AWS RDS): read the local NVMe device.
  kLocalDisk,
  /// Storage disaggregation (CDB1/CDB2/CDB3): page read from the shared
  /// storage service across the network.
  kDisaggregatedStorage,
  /// Memory disaggregation (CDB4): try the RDMA remote buffer pool first,
  /// fall back to the storage service.
  kRemoteBufferThenStorage,
};

/// Deadline/backoff policy for buffer-miss fetches (graceful degradation,
/// DESIGN.md §4g). Disabled by default: the miss path is byte-identical to
/// the pre-policy build until Cluster::EnableDegradation arms it.
struct FetchPolicy {
  bool enabled = false;
  /// A fetch attempt fails fast when its deterministic completion estimate
  /// (device/link virtual queues, see EstimatedReadDelay and friends)
  /// exceeds this deadline — the DES cannot cancel a coroutine mid-await,
  /// and the estimates are exact for FIFO resources anyway.
  sim::SimTime deadline = sim::Millis(40);
  int max_retries = 3;
  sim::SimTime backoff_base = sim::Millis(2);
  sim::SimTime backoff_cap = sim::Millis(64);
  /// Backoff is stretched by (1 + jitter * U[0,1)) drawn from the node's
  /// dedicated RNG stream, decorrelating retry herds without perturbing
  /// workload draws.
  double jitter = 0.5;
};

/// One database compute node: CPU slots, a local buffer pool, and the
/// architecture-specific miss/commit paths. Implements txn::Engine (the
/// TxnManager drives it) and ScalingTarget (the Autoscaler drives it).
class ComputeNode : public txn::Engine, public ScalingTarget {
 public:
  struct Config {
    std::string name;
    bool is_rw = true;
    double vcores = 4;
    double memory_gb = 16;
    int64_t buffer_bytes = 128LL << 20;
    /// Memory follows vCores for serverless (ACU/CU bundling).
    double memory_gb_per_vcore = 4.0;
    bool memory_follows_vcores = false;
    /// Fraction of memory the buffer pool gets when memory scales.
    double buffer_fraction_of_memory = 0.5;
    MissPath miss_path = MissPath::kLocalDisk;
    /// CPU cost of a buffer miss served from disk/storage: page read,
    /// checksum, buffer allocation and eviction bookkeeping. This is what
    /// makes buffer size matter for throughput (Fig. 8), not just latency.
    sim::SimTime miss_cpu = sim::Micros(250);
    /// CPU cost of a miss served from the RDMA remote buffer pool
    /// (one-sided read; no page-processing machinery).
    sim::SimTime remote_hit_cpu = sim::Micros(10);
    /// Write-back engine (RDS): dirty pages must eventually be flushed and
    /// evicting a dirty page costs a device write.
    bool write_back = false;
    /// Backpressure: beyond this dirty fraction, each write also flushes
    /// one page synchronously (backend flush).
    double dirty_throttle_ratio = 0.60;
    txn::CpuCosts cpu_costs;
    sim::SimTime lock_wait_timeout = sim::Seconds(5);
    /// Added to every table id when forming buffer PageIds, so tenants
    /// sharing one physical buffer do not collide.
    int32_t page_table_offset = 0;
    /// Some serverless implementations drop connections while resizing the
    /// instance (the paper observes CDB1 losing most of its throughput in
    /// serverless mode); the node is unavailable for this long after every
    /// capacity change.
    sim::SimTime scaling_stall = sim::Micros(0);
  };

  /// Dependencies may be null when the architecture does not use them.
  /// `cpu` is externally owned (Cluster), enabling elastic pools where
  /// several tenants' nodes share one SlotResource.
  ComputeNode(sim::Environment* env, Config config,
              storage::TableSet* tables, sim::SlotResource* cpu,
              storage::DiskDevice* local_disk, net::Link* storage_link,
              StorageService* storage_service,
              RemoteBufferPool* remote_buffer, storage::LogManager* log);

  // ---- txn::Engine ----
  sim::Environment* env() override { return env_; }
  storage::TableSet* tables() override { return tables_; }
  txn::LockManager* lock_manager() override { return &locks_; }
  bool available() const override { return available_; }
  util::Status Admit() override;
  /// With tracing off this is cpu().Consume(demand) itself; with tracing
  /// on, a coroutine that wraps it in a "cpu.charge" span.
  sim::FastCall<void> ChargeCpu(sim::SimTime demand) override;
  /// A buffer hit that needs no dirty-throttle flush completes at the call
  /// (the coroutine would record no span for it); everything else runs
  /// AccessPageTask.
  sim::FastCall<util::Status> AccessPage(storage::PageId page,
                                         bool for_write) override;
  sim::Task<util::Status> CommitRecords(
      const std::vector<storage::LogRecord>* records) override;

  // ---- ScalingTarget ----
  double busy_core_seconds() const override { return cpu_->busy_core_seconds(); }
  double allocated_vcores() const override { return allocated_vcores_; }
  int cpu_waiting() const override { return static_cast<int>(cpu_->waiting()); }
  int cpu_active() const override { return cpu_->active(); }
  void ApplyVcores(double vcores) override;

  // ---- node management ----
  const Config& config() const { return config_; }
  const std::string& name() const { return config_.name; }
  bool is_rw() const { return config_.is_rw; }
  double allocated_memory_gb() const { return allocated_memory_gb_; }

  /// Current allocation for the meter (vCores + memory only; storage,
  /// IOPS and network are metered at cluster level).
  ResourceVector AllocatedResources() const;

  /// Fail-over support.
  void SetAvailable(bool available) { available_ = available; }
  /// Cold restart: drops the local buffer (remote buffer survives).
  void ClearLocalBuffer() { buffer_.Clear(); }
  /// Role promotion (CDB4 switch-over): become the RW node over the
  /// canonical tables with the primary's log.
  void PromoteToRw(storage::TableSet* canonical, storage::LogManager* log);
  /// Demotion of a recovered ex-RW to RO over a replica table set.
  void DemoteToRo(storage::TableSet* replica);

  /// Resizes the buffer pool (serverless memory scaling / Fig. 8 sweep).
  void SetBufferBytes(int64_t bytes);

  // ---- graceful degradation (DESIGN.md §4g) ----
  /// Arms deadline/backoff on the miss path. `seed` feeds the node's own
  /// Pcg32 stream for backoff jitter; workload RNG draws are untouched.
  void EnableFetchPolicy(const FetchPolicy& policy, uint64_t seed);
  int64_t fetch_timeouts() const { return fetch_timeouts_; }
  /// Admission-control load shedding: while on, Admit() refuses new
  /// transactions with kResourceExhausted. Driven (with hysteresis and
  /// journaling) by the cluster's DegradationController.
  void SetShedding(bool on) { shedding_ = on; }
  bool shedding() const { return shedding_; }
  int64_t shed_rejects() const { return shed_rejects_; }

  /// Throttles effective CPU capacity to `fraction` of the allocation
  /// without changing the billed allocation (post-fail-over ramp,
  /// multi-tenant throttling). Each change is journaled as a
  /// "capacity.fraction" timeline event (throttle / boost).
  void SetCapacityFraction(double fraction);

  storage::BufferPool& buffer() { return buffer_; }
  sim::SlotResource& cpu() { return *cpu_; }
  txn::TxnManager& txn() { return txn_mgr_; }
  txn::LockManager& locks() { return locks_; }
  storage::LogManager* log() { return log_; }

  /// Recovery-model inputs snapshotted at crash time.
  int64_t dirty_pages() const { return buffer_.dirty_pages(); }
  int64_t active_txns() const { return txn_mgr_.active_txns(); }

  int64_t storage_reads() const { return storage_reads_; }
  int64_t backend_flushes() const { return backend_flushes_; }

 private:
  storage::PageId Offset(storage::PageId page) const {
    return storage::PageId{page.table + config_.page_table_offset,
                           page.page_no};
  }

  /// Deterministic completion estimate for serving a miss of `pid` now,
  /// along this architecture's miss path (fetch-deadline input).
  sim::SimTime EstimateMissDelay(storage::PageId pid) const;
  /// Exponential backoff with multiplicative jitter for retry `attempt`.
  sim::SimTime BackoffDelay(int attempt);
  sim::Task<void> ChargeCpuTraced(sim::SimTime demand);
  sim::Task<util::Status> AccessPageTask(storage::PageId page, bool for_write);
  /// True when dirtying `pid` would push the dirty ratio past the
  /// write-back throttle, so the access owes a backend flush.
  bool DirtyThrottled(storage::PageId pid) const;

  /// Deadline/backoff gate before the miss fetch; OK when the fetch may
  /// proceed, kUnavailable when retries are exhausted or the node fails
  /// mid-backoff.
  sim::Task<util::Status> AwaitFetchSlot(storage::PageId pid);

  sim::Environment* env_;
  Config config_;
  std::string obs_scope_;  // "node.<name>", built once instead of per event
  obs::TraceRecorder* recorder_;  // this thread's, resolved once
  storage::TableSet* tables_;
  sim::SlotResource* cpu_;
  storage::BufferPool buffer_;
  storage::DiskDevice* local_disk_;
  net::Link* storage_link_;
  StorageService* storage_service_;
  RemoteBufferPool* remote_buffer_;
  storage::LogManager* log_;
  txn::LockManager locks_;
  txn::TxnManager txn_mgr_;

  bool available_ = true;
  double capacity_fraction_ = 1.0;
  double allocated_vcores_;
  double allocated_memory_gb_;
  int64_t storage_reads_ = 0;
  int64_t backend_flushes_ = 0;

  // Graceful-degradation state; inert until EnableFetchPolicy/SetShedding.
  FetchPolicy fetch_policy_;
  util::Pcg32 fetch_rng_{0, 0};
  bool shedding_ = false;
  int64_t fetch_timeouts_ = 0;
  int64_t shed_rejects_ = 0;
};

}  // namespace cloudybench::cloud

#endif  // CLOUDYBENCH_CLOUD_COMPUTE_NODE_H_

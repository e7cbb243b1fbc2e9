#ifndef CLOUDYBENCH_CLOUD_CLUSTER_H_
#define CLOUDYBENCH_CLOUD_CLUSTER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/autoscaler.h"
#include "cloud/compute_node.h"
#include "cloud/degradation.h"
#include "cloud/meter.h"
#include "cloud/pricing.h"
#include "cloud/services.h"
#include "net/network.h"
#include "repl/replayer.h"
#include "sim/environment.h"
#include "storage/disk.h"
#include "storage/synthetic_table.h"
#include "storage/wal.h"

namespace cloudybench::cloud {

/// Timing model for the restart-model fail-over evaluation (paper §II-E).
/// Durations that depend on state (dirty pages, active transactions, log
/// backlog) are charged per unit from the crash-time snapshot — this is
/// what separates ARIES-style RDS recovery from log-replay CDB recovery.
struct RecoveryModel {
  /// Heartbeat-based failure detection.
  sim::SimTime detect = sim::Seconds(1);
  /// Process restart / pod reschedule before recovery proper.
  sim::SimTime base_restart = sim::Seconds(4);
  /// ARIES redo per dirty page lost from the buffer (RDS only).
  sim::SimTime per_dirty_page_redo = sim::Micros(0);
  /// Undo per transaction in flight at the crash.
  sim::SimTime per_active_txn_undo = sim::Millis(0);
  /// Extra round trips re-attaching separate log/page tiers (CDB2, CDB3).
  sim::SimTime service_handshake = sim::Seconds(0);
  /// RO node restart duration (used for RO-failure injection).
  sim::SimTime ro_restart = sim::Seconds(5);
  /// CDB4: promote an RO instead of restarting in place.
  bool promote_ro = false;
  sim::SimTime prepare_phase = sim::Seconds(1);
  sim::SimTime switchover_phase = sim::Seconds(2);
  sim::SimTime recovering_phase = sim::Seconds(3);
  /// After service resumes, effective capacity ramps from `ramp_start` of
  /// nominal back to 100% over this duration — connection storms, plan/
  /// catalog cache rebuilding and buffer warmup; this is what the paper's
  /// R-Score measures. CDB4's warm remote buffer makes its ramp trivial.
  sim::SimTime tps_rampup = sim::Seconds(10);
  double ramp_start = 0.15;
};

/// Full configuration of one database cluster (one SUT deployment).
/// sut::Profiles builds these from the paper's Table IV.
struct ClusterConfig {
  std::string name;

  ComputeNode::Config node;  // template for the RW node (ROs derive from it)
  AutoscalerConfig autoscaler;
  /// CPU paying for log replay: the page server for disaggregated designs,
  /// the RO node's own CPU for coupled RDS.
  double page_server_vcores = 4.0;

  bool use_local_disk = false;  // RDS: data on local NVMe
  storage::DiskDevice::Config local_disk;
  StorageService::Config storage;
  storage::DiskDevice::Config log_device;
  net::LinkConfig node_storage_link = net::LinkConfig::Tcp10G("storage");
  net::LinkConfig replication_link = net::LinkConfig::Tcp10G("repl");
  /// Log appends cross the network for disaggregated log tiers.
  bool log_over_network = false;
  /// Billed storage = logical GB x this factor (RDS 2-way standby, CDB1
  /// six-way replication, others three-way).
  double storage_billing_factor = 3.0;
  double provisioned_tcp_gbps = 10.0;
  double provisioned_rdma_gbps = 0.0;
  double provisioned_iops = 3000;
  /// Service-tier memory billed beyond the compute nodes' own (storage-tier
  /// caches, CDB4's remote buffer pool). Keeps Table V's memory column
  /// reproducible.
  double extra_memory_gb = 0.0;

  bool remote_buffer = false;  // CDB4 memory disaggregation
  int64_t remote_buffer_bytes = 0;
  sim::SimTime remote_fetch_latency = sim::Micros(2);

  repl::ReplayConfig replay;

  sim::SimTime checkpoint_interval = sim::Seconds(30);
  int checkpoint_batch_pages = 128;

  RecoveryModel recovery;

  PriceBook price_book;
  ActualPricing actual_pricing;
  sim::SimTime meter_interval = sim::Seconds(1);

  /// Optional externally-owned shared resources (multi-tenant elastic
  /// pool): when set, the cluster's compute nodes run on this CPU and its
  /// log manager writes to this device.
  sim::SlotResource* shared_pool_cpu = nullptr;
  storage::DiskDevice* shared_log_device = nullptr;
  /// When sharing pool resources, per-cluster metering of vCores would
  /// double-count; the pool owner meters instead.
  bool meter_compute = true;
  /// Tenant identity for multi-tenant deployments. When >= 0 the cluster
  /// tags its meter sources with this id and publishes a
  /// "cost.tenant.<id>.ruc_dollars" gauge (attributed RUC dollars since
  /// deployment) under its metric prefix. -1 = single-tenant, no tagging.
  int tenant_id = -1;
};

/// One deployed database: RW node, RO replicas, storage/log tiers,
/// replication pipelines, autoscaler, meter, and the fail-over machinery.
class Cluster {
 public:
  Cluster(sim::Environment* env, ClusterConfig config, int n_ro_nodes);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Creates the canonical tables and per-replica copies, then starts the
  /// background machinery (meter, autoscaler, checkpointer).
  void Load(const std::vector<storage::TableSchema>& schemas,
            int64_t scale_factor);

  // ---- topology ----
  ComputeNode* rw() { return current_rw_; }
  size_t ro_count() const { return ro_nodes_.size(); }
  ComputeNode* ro(size_t i) { return ro_nodes_[i]; }
  /// Round-robin over available RO nodes; falls back to the RW node.
  ComputeNode* RouteRead();
  /// Adds one RO node (scale-out / E2 evaluation); replica is seeded from
  /// the canonical tables. Returns its index.
  size_t AddRoNode();

  /// Fills every node's buffer pool (and the remote buffer pool) with a
  /// proportional slice of each table's pages, emulating a long-running
  /// server's steady-state cache instead of a cold start. Evaluations call
  /// this after Load so hit rates reflect capacity vs. working set, the
  /// quantity the paper's SF sweep actually varies.
  void PrewarmBuffers();

  storage::TableSet* canonical() { return &canonical_tables_; }
  repl::Replayer* replayer(size_t i) { return replayers_[i].get(); }
  size_t replayer_count() const { return replayers_.size(); }
  storage::LogManager* log_manager() { return log_mgr_.get(); }
  StorageService* storage_service() { return storage_.get(); }
  RemoteBufferPool* remote_buffer() { return remote_buffer_.get(); }
  /// RDS-style local NVMe device; nullptr for disaggregated SUTs.
  storage::DiskDevice* local_disk() { return local_disk_.get(); }
  /// The device absorbing log appends — owned or the shared pool device.
  storage::DiskDevice* log_device() {
    return log_device_ != nullptr ? log_device_.get()
                                  : cfg_.shared_log_device;
  }
  ResourceMeter& meter() { return *meter_; }
  Autoscaler& autoscaler() { return *autoscaler_; }
  const ClusterConfig& config() const { return cfg_; }

  /// The replayer feeding `node`'s replica tables; nullptr for the RW node.
  /// Matched by table set rather than index because promotion swaps which
  /// node sits on which replica.
  repl::Replayer* ReplayerFor(ComputeNode* node);
  /// Every link whose role suffix matches: "storage" (per-node storage
  /// links), "repl" (replication links), "rdma" (CDB4's remote-buffer
  /// fabric). The fault injector's link targets resolve through this.
  std::vector<net::Link*> LinksByRole(std::string_view role);
  /// Public event-journal scope ("cluster.CDB4#0") for subsystems — fault
  /// injector, degradation controller — that journal under this cluster's
  /// identity.
  std::string ObsScope() const { return Scope(); }

  // ---- graceful degradation (DESIGN.md §4g) ----
  /// Arms deadline/backoff fetch policies on every node (including ones
  /// added later), the RO circuit breaker consulted by RouteRead(), and RW
  /// load shedding. Call after Load(), at most once. Off by default: a
  /// cluster that never calls this is byte-identical to the pre-§4g build.
  void EnableDegradation(const DegradationPolicy& policy);
  DegradationController* degradation() { return degradation_.get(); }

  /// Sum of fetch timeouts / shed rejects over all nodes (availability
  /// reporting).
  int64_t TotalFetchTimeouts() const;
  int64_t TotalShedRejects() const;

  // ---- fail-over (restart model) ----
  /// Injections landing while an RW recovery is already in flight (or the
  /// node is otherwise down) are ignored and journaled as
  /// "failover.ignored": a second snapshot of a node that is already down
  /// would corrupt the crash-time dirty/active/backlog figures the recovery
  /// charges from.
  void InjectRwRestart(sim::SimTime at);
  void InjectRoRestart(size_t ro_index, sim::SimTime at);
  bool rw_available() const { return current_rw_->available(); }
  /// True from an accepted RW injection until the failed node has fully
  /// rejoined (promote path) or resumed serving (in-place path).
  bool rw_recovery_in_flight() const { return rw_recovery_in_flight_; }

  // ---- chaos mutation hook ----
  /// Plants a deliberate durability bug: each accepted RW crash silently
  /// drops the newest committed insert from the canonical tables (a lost
  /// WAL tail). The chaos mutation test (tests/chaos_test.cc) arms this and
  /// asserts the durability oracle catches and shrinks it; production code
  /// never sets it.
  void PlantWalTailLossForTest() { wal_tail_loss_for_test_ = true; }

  // ---- aggregate stats ----
  int64_t TotalCommits() const;
  int64_t TotalAborts() const;
  /// Sum of logical table bytes, billed with the replication factor.
  double BilledStorageGb() const;

 private:
  sim::Process RwRecovery(ComputeNode* failed, int64_t dirty_pages,
                          int64_t active_txns, int64_t log_backlog_bytes);
  /// The planted-bug payload (see PlantWalTailLossForTest).
  void DropNewestInsertForTest();
  /// Restart-in-place recovery duration charged from the crash snapshot.
  sim::Process InPlaceRecovery(ComputeNode* failed, int64_t dirty_pages,
                               int64_t active_txns,
                               int64_t log_backlog_bytes);
  sim::Process RoRecovery(ComputeNode* node);
  /// Post-resume capacity ramp (see RecoveryModel::tps_rampup).
  sim::Process CapacityRamp(ComputeNode* node);
  sim::Process CheckpointLoop();
  ComputeNode* BuildNode(const std::string& name, bool is_rw,
                         storage::TableSet* tables);
  ResourceVector ServiceResources() const;
  /// Publishes this cluster's gauges/series into the global MetricRegistry
  /// under a unique prefix; the destructor unregisters them (the callbacks
  /// capture `this`).
  void RegisterMetrics();
  /// Event-journal scope: the metric prefix without its trailing dot
  /// ("cluster.CDB4#0"). Valid once Load() has run.
  std::string Scope() const {
    return metric_prefix_.empty()
               ? "cluster." + cfg_.name
               : metric_prefix_.substr(0, metric_prefix_.size() - 1);
  }

  sim::Environment* env_;
  ClusterConfig cfg_;
  int pending_ro_nodes_ = 0;
  std::vector<storage::TableSchema> schemas_;
  int64_t scale_factor_ = 1;

  storage::TableSet canonical_tables_;
  std::vector<std::unique_ptr<storage::TableSet>> replica_tables_;

  std::vector<std::unique_ptr<sim::SlotResource>> owned_cpus_;
  std::unique_ptr<sim::SlotResource> page_server_cpu_;
  std::unique_ptr<storage::DiskDevice> local_disk_;
  std::unique_ptr<storage::DiskDevice> log_device_;
  std::unique_ptr<StorageService> storage_;
  std::vector<std::unique_ptr<net::Link>> links_;
  net::Link* rdma_link_ = nullptr;
  std::unique_ptr<RemoteBufferPool> remote_buffer_;
  std::unique_ptr<storage::LogManager> log_mgr_;
  std::vector<std::unique_ptr<repl::Replayer>> replayers_;
  std::vector<std::unique_ptr<ComputeNode>> nodes_;
  ComputeNode* current_rw_ = nullptr;
  std::vector<ComputeNode*> ro_nodes_;
  std::unique_ptr<Autoscaler> autoscaler_;
  std::unique_ptr<ResourceMeter> meter_;
  bool loaded_ = false;
  size_t rr_next_ = 0;
  std::string metric_prefix_;
  std::unique_ptr<DegradationController> degradation_;
  /// Guards against double injection (see InjectRwRestart).
  bool rw_recovery_in_flight_ = false;
  bool wal_tail_loss_for_test_ = false;
};

}  // namespace cloudybench::cloud

#endif  // CLOUDYBENCH_CLOUD_CLUSTER_H_

#include "cloud/cluster.h"

#include <algorithm>
#include <utility>

#include "obs/metric_registry.h"
#include "obs/timeline.h"
#include "util/logging.h"
#include "util/random.h"

namespace cloudybench::cloud {

namespace {
using storage::BufferPool;
using storage::LogRecord;
using storage::LogRecordType;
}  // namespace

Cluster::Cluster(sim::Environment* env, ClusterConfig config, int n_ro_nodes)
    : env_(env), cfg_(std::move(config)) {
  CB_CHECK(env != nullptr);
  CB_CHECK_GE(n_ro_nodes, 0);
  pending_ro_nodes_ = n_ro_nodes;
}

Cluster::~Cluster() {
  // The registered gauges capture `this`; drop them before the members they
  // read are destroyed.
  if (!metric_prefix_.empty()) {
    obs::MetricRegistry::Get().UnregisterPrefix(metric_prefix_);
  }
}

ComputeNode* Cluster::BuildNode(const std::string& name, bool is_rw,
                                storage::TableSet* tables) {
  // CPU: shared elastic-pool resource when configured, else owned.
  sim::SlotResource* cpu = cfg_.shared_pool_cpu;
  if (cpu == nullptr) {
    owned_cpus_.push_back(
        std::make_unique<sim::SlotResource>(env_, cfg_.node.vcores));
    cpu = owned_cpus_.back().get();
  }
  // Every node gets its own link to the storage tier.
  net::LinkConfig link_cfg = cfg_.node_storage_link;
  link_cfg.name = name + "-storage";
  links_.push_back(std::make_unique<net::Link>(env_, link_cfg));
  net::Link* storage_link = links_.back().get();

  ComputeNode::Config node_cfg = cfg_.node;
  node_cfg.name = name;
  node_cfg.is_rw = is_rw;
  nodes_.push_back(std::make_unique<ComputeNode>(
      env_, node_cfg, tables, cpu, local_disk_.get(), storage_link,
      storage_.get(), remote_buffer_.get(),
      is_rw ? log_mgr_.get() : nullptr));
  ComputeNode* node = nodes_.back().get();
  if (degradation_ != nullptr) {
    // Nodes added after EnableDegradation (scale-out) get the same fetch
    // policy, on their own jitter stream.
    const DegradationPolicy& policy = degradation_->policy();
    node->EnableFetchPolicy(
        policy.fetch, util::SplitSeed(policy.fetch_seed, util::kJitterStream,
                                      nodes_.size() - 1));
  }
  return node;
}

void Cluster::Load(const std::vector<storage::TableSchema>& schemas,
                   int64_t scale_factor) {
  CB_CHECK(!loaded_) << "Load called twice";
  loaded_ = true;
  schemas_ = schemas;
  scale_factor_ = scale_factor;

  // Observability identity, fixed before any machinery exists so the
  // autoscaler and fail-over paths can journal events under it. Tenants can
  // deploy the same profile twice, so the prefix carries an instance
  // sequence number; the registry owns the sequence (thread-local, reset by
  // Clear()) so matrix cells get the same names regardless of worker
  // placement.
  metric_prefix_ =
      "cluster." + cfg_.name + "#" +
      std::to_string(obs::MetricRegistry::Get().NextInstanceId()) + ".";

  // ---- storage and log tiers ----
  if (cfg_.use_local_disk) {
    local_disk_ = std::make_unique<storage::DiskDevice>(env_, cfg_.local_disk);
  }
  storage_ = std::make_unique<StorageService>(env_, cfg_.storage);
  storage::DiskDevice* log_dev = cfg_.shared_log_device;
  if (log_dev == nullptr) {
    log_device_ = std::make_unique<storage::DiskDevice>(env_, cfg_.log_device);
    log_dev = log_device_.get();
  }
  log_mgr_ = std::make_unique<storage::LogManager>(env_, log_dev);

  // ---- memory disaggregation tier ----
  if (cfg_.remote_buffer) {
    net::LinkConfig rdma = net::LinkConfig::Rdma10G(cfg_.name + "-rdma");
    links_.push_back(std::make_unique<net::Link>(env_, rdma));
    rdma_link_ = links_.back().get();
    remote_buffer_ = std::make_unique<RemoteBufferPool>(
        env_, cfg_.remote_buffer_bytes, rdma_link_, cfg_.remote_fetch_latency);
  }

  // ---- page-server CPU (pays for replay in disaggregated designs) ----
  page_server_cpu_ =
      std::make_unique<sim::SlotResource>(env_, cfg_.page_server_vcores);

  // ---- canonical tables ----
  for (const storage::TableSchema& schema : schemas_) {
    canonical_tables_.Create(schema, scale_factor_);
  }

  // ---- nodes ----
  current_rw_ = BuildNode(cfg_.name + "-rw", /*is_rw=*/true,
                          &canonical_tables_);
  for (int i = 0; i < pending_ro_nodes_; ++i) {
    AddRoNode();
  }

  // ---- ship listener: replicas + remote-buffer coherence ----
  log_mgr_->AddShipListener([this](std::span<const LogRecord> records) {
    for (auto& replayer : replayers_) replayer->Ship(records);
    if (remote_buffer_ == nullptr) return;
    for (const LogRecord& rec : records) {
      if (rec.type == LogRecordType::kCommit) continue;
      storage::SyntheticTable* table = canonical_tables_.FindById(rec.table);
      if (table != nullptr) {
        remote_buffer_->Admit(storage::PageId{
            rec.table + cfg_.node.page_table_offset, table->PageOf(rec.key)});
        remote_buffer_->CountInvalidation();
      }
    }
  });

  // ---- background machinery ----
  autoscaler_ =
      std::make_unique<Autoscaler>(env_, current_rw_, cfg_.autoscaler);
  autoscaler_->SetScope(metric_prefix_ + "autoscaler");
  autoscaler_->Start();

  meter_ = std::make_unique<ResourceMeter>(env_, cfg_.price_book,
                                           cfg_.meter_interval);
  if (cfg_.meter_compute) {
    meter_->AddSource(
        [this] {
          ResourceVector total;
          for (const auto& node : nodes_) total += node->AllocatedResources();
          return total;
        },
        cfg_.tenant_id);
  }
  meter_->AddSource([this] { return ServiceResources(); }, cfg_.tenant_id);
  meter_->Start();

  if (cfg_.node.write_back) {
    env_->Spawn(CheckpointLoop());
  }

  RegisterMetrics();
}

void Cluster::RegisterMetrics() {
  // metric_prefix_ was fixed at the top of Load(); this publishes under it.
  obs::MetricRegistry& registry = obs::MetricRegistry::Get();
  registry.RegisterGauge(metric_prefix_ + "buffer.rw.hit_ratio", [this] {
    const storage::BufferPool& pool = current_rw_->buffer();
    int64_t lookups = pool.hits() + pool.misses();
    if (lookups == 0) return 0.0;
    return static_cast<double>(pool.hits()) / static_cast<double>(lookups);
  });
  registry.RegisterGauge(metric_prefix_ + "buffer.rw.backend_flushes", [this] {
    return static_cast<double>(current_rw_->backend_flushes());
  });
  registry.RegisterGauge(metric_prefix_ + "storage.rw.reads", [this] {
    return static_cast<double>(current_rw_->storage_reads());
  });
  registry.RegisterGauge(metric_prefix_ + "locks.rw.waits", [this] {
    return static_cast<double>(current_rw_->locks().waits());
  });
  registry.RegisterGauge(metric_prefix_ + "locks.rw.timeouts", [this] {
    return static_cast<double>(current_rw_->locks().timeouts());
  });
  registry.RegisterGauge(metric_prefix_ + "autoscaler.events", [this] {
    return static_cast<double>(autoscaler_->events().size());
  });
  registry.RegisterGauge(metric_prefix_ + "autoscaler.rw.vcores", [this] {
    return current_rw_->AllocatedResources().vcores;
  });
  registry.RegisterGauge(metric_prefix_ + "repl.backlog", [this] {
    int64_t backlog = 0;
    for (const auto& replayer : replayers_) backlog += replayer->backlog();
    return static_cast<double>(backlog);
  });
  registry.RegisterGauge(metric_prefix_ + "repl.records_applied", [this] {
    int64_t applied = 0;
    for (const auto& replayer : replayers_) {
      applied += replayer->records_applied();
    }
    return static_cast<double>(applied);
  });
  if (cfg_.tenant_id >= 0) {
    // Attributed RUC dollars accumulated since deployment. Integer sample
    // times and a fixed step integral keep this reproducible, and living
    // under the prefix means ~Cluster's UnregisterPrefix tears it down.
    registry.RegisterGauge(
        metric_prefix_ + "cost.tenant." + std::to_string(cfg_.tenant_id) +
            ".ruc_dollars",
        [this] {
          return meter_->TenantRucDollars(cfg_.tenant_id, 0.0,
                                          env_->Now().ToSeconds());
        });
  }
  registry.RegisterSeries(metric_prefix_ + "meter.vcores",
                          &meter_->vcores_series());
  registry.RegisterSeries(metric_prefix_ + "meter.memory_gb",
                          &meter_->memory_series());
  // The full scaling history — every completed capacity change as a
  // (time, vcores-after) point — not just the event-count gauge above.
  registry.RegisterSeries(metric_prefix_ + "autoscaler.scaling",
                          &autoscaler_->scaling_series());
}

size_t Cluster::AddRoNode() {
  auto replica = std::make_unique<storage::TableSet>();
  for (const storage::TableSchema& schema : schemas_) {
    replica->Create(schema, scale_factor_);
  }
  replica->CopyContentsFrom(canonical_tables_);
  storage::TableSet* replica_raw = replica.get();
  replica_tables_.push_back(std::move(replica));

  size_t index = ro_nodes_.size();
  ComputeNode* node = BuildNode(
      cfg_.name + "-ro" + std::to_string(index), /*is_rw=*/false, replica_raw);
  ro_nodes_.push_back(node);

  net::LinkConfig repl_link_cfg = cfg_.replication_link;
  repl_link_cfg.name = cfg_.name + "-repl" + std::to_string(index);
  links_.push_back(std::make_unique<net::Link>(env_, repl_link_cfg));
  net::Link* repl_link = links_.back().get();

  // RDS replays on the replica's own CPU; disaggregated designs replay on
  // the page server.
  sim::SlotResource* replay_cpu = cfg_.use_local_disk
                                      ? &node->cpu()
                                      : page_server_cpu_.get();
  replayers_.push_back(std::make_unique<repl::Replayer>(
      env_, replica_raw, repl_link, replay_cpu, cfg_.replay));
  replayers_.back()->SetScope(Scope() + ".repl" + std::to_string(index));
  return index;
}

void Cluster::PrewarmBuffers() {
  int64_t total_pages = 0;
  for (const auto& table : canonical_tables_.tables()) {
    total_pages += table->pages();
  }
  CB_CHECK_GT(total_pages, 0);
  // Every pool holds the same fraction of each table, lowest pages first.
  auto runs_for = [&](int64_t capacity_pages, int32_t table_offset) {
    double fraction =
        std::min(1.0, static_cast<double>(capacity_pages) /
                          static_cast<double>(total_pages));
    std::vector<storage::PageRun> runs;
    for (const auto& table : canonical_tables_.tables()) {
      runs.push_back(storage::PageRun{
          storage::PageId{table->id() + table_offset, 0},
          static_cast<int64_t>(fraction *
                               static_cast<double>(table->pages()))});
    }
    return runs;
  };
  for (const auto& node : nodes_) {
    BufferPool& pool = node->buffer();
    pool.Prewarm(runs_for(pool.capacity_pages(),
                          node->config().page_table_offset));
  }
  if (remote_buffer_ != nullptr) {
    remote_buffer_->Prewarm(
        runs_for(remote_buffer_->capacity_bytes() / BufferPool::kPageBytes,
                 cfg_.node.page_table_offset));
  }
}

ComputeNode* Cluster::RouteRead() {
  if (!ro_nodes_.empty()) {
    for (size_t attempt = 0; attempt < ro_nodes_.size(); ++attempt) {
      ComputeNode* candidate = ro_nodes_[rr_next_ % ro_nodes_.size()];
      rr_next_ = (rr_next_ + 1) % std::max<size_t>(1, ro_nodes_.size());
      if (!candidate->available()) continue;
      // Circuit breaker: an RO whose breaker is Open (down or drowning in
      // replay backlog) is excluded until its half-open probation passes.
      if (degradation_ != nullptr && !degradation_->ReadEligible(candidate)) {
        continue;
      }
      return candidate;
    }
  }
  return current_rw_;
}

repl::Replayer* Cluster::ReplayerFor(ComputeNode* node) {
  for (auto& replayer : replayers_) {
    if (replayer->replica_tables() == node->tables()) return replayer.get();
  }
  return nullptr;
}

std::vector<net::Link*> Cluster::LinksByRole(std::string_view role) {
  // Link names encode their role as a suffix: "<node>-storage",
  // "<cluster>-repl<N>", "<cluster>-rdma".
  std::string needle = "-" + std::string(role);
  std::vector<net::Link*> out;
  for (auto& link : links_) {
    if (link->config().name.find(needle) != std::string::npos) {
      out.push_back(link.get());
    }
  }
  return out;
}

void Cluster::EnableDegradation(const DegradationPolicy& policy) {
  CB_CHECK(loaded_) << "EnableDegradation before Load";
  CB_CHECK(degradation_ == nullptr) << "EnableDegradation called twice";
  degradation_ =
      std::make_unique<DegradationController>(env_, this, policy);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->EnableFetchPolicy(
        policy.fetch, util::SplitSeed(policy.fetch_seed, util::kJitterStream, i));
  }
  degradation_->Start();
  obs::EmitEvent(env_, Scope(), "degradation.enabled",
                 "fetch deadlines, RO breaker, RW shedding");
}

int64_t Cluster::TotalFetchTimeouts() const {
  int64_t total = 0;
  for (const auto& node : nodes_) total += node->fetch_timeouts();
  return total;
}

int64_t Cluster::TotalShedRejects() const {
  int64_t total = 0;
  for (const auto& node : nodes_) total += node->shed_rejects();
  return total;
}

ResourceVector Cluster::ServiceResources() const {
  ResourceVector r;
  r.memory_gb = cfg_.extra_memory_gb;
  r.storage_gb = BilledStorageGb();
  r.iops = cfg_.provisioned_iops;
  r.tcp_gbps = cfg_.provisioned_tcp_gbps;
  r.rdma_gbps = cfg_.provisioned_rdma_gbps;
  return r;
}

double Cluster::BilledStorageGb() const {
  double logical_gb = static_cast<double>(canonical_tables_.TotalLogicalBytes()) /
                      (1024.0 * 1024.0 * 1024.0);
  return logical_gb * cfg_.storage_billing_factor;
}

sim::Process Cluster::CheckpointLoop() {
  for (;;) {
    co_await env_->Delay(cfg_.checkpoint_interval);
    ComputeNode* rw = current_rw_;
    if (!rw->available() || local_disk_ == nullptr) continue;
    std::vector<storage::PageId> dirty =
        rw->buffer().TakeDirty(static_cast<size_t>(cfg_.checkpoint_batch_pages));
    if (!dirty.empty()) {
      obs::EmitEvent(env_, Scope(), "checkpoint.flush", "dirty pages",
                     static_cast<double>(dirty.size()));
      co_await local_disk_->Write(static_cast<int64_t>(dirty.size()) *
                                  BufferPool::kPageBytes);
    }
  }
}

void Cluster::InjectRwRestart(sim::SimTime at) {
  env_->ScheduleCall(at, [this] {
    ComputeNode* failed = current_rw_;
    // Double-injection guard: while a recovery is in flight (or the node is
    // down) the buffer, active-txn and log-backlog figures no longer describe
    // a crash — snapshotting them again would corrupt the recovery model's
    // inputs. Ignore the injection and journal it.
    if (rw_recovery_in_flight_ || !failed->available()) {
      obs::EmitEvent(env_, Scope(), "failover.ignored",
                     "rw restart while recovery in flight");
      return;
    }
    rw_recovery_in_flight_ = true;
    int64_t dirty = failed->dirty_pages();
    int64_t active = failed->active_txns();
    int64_t backlog = log_mgr_->pending_bytes();
    obs::EmitEvent(env_, Scope(), "failover.inject", "rw restart",
                   static_cast<double>(active));
    if (wal_tail_loss_for_test_) DropNewestInsertForTest();
    failed->SetAvailable(false);
    failed->ClearLocalBuffer();
    env_->Spawn(RwRecovery(failed, dirty, active, backlog));
  });
}

void Cluster::DropNewestInsertForTest() {
  // Simulates a lost WAL tail: the newest committed insert vanishes from
  // the canonical state even though the client saw its commit succeed.
  // Tables are scanned in creation order; within a table, newest key first.
  for (const auto& table : canonical_tables_.tables()) {
    for (int64_t key = table->max_key(); key >= table->base_count(); --key) {
      if (table->Exists(key)) {
        CB_CHECK_OK(table->Delete(key));
        obs::EmitEvent(env_, Scope(), "chaos.planted_loss",
                       table->schema().name, static_cast<double>(key));
        return;
      }
    }
  }
}

void Cluster::InjectRoRestart(size_t ro_index, sim::SimTime at) {
  CB_CHECK_LT(ro_index, ro_nodes_.size());
  env_->ScheduleCall(at, [this, ro_index] {
    ComputeNode* node = ro_nodes_[ro_index];
    if (!node->available()) return;
    obs::EmitEvent(env_, Scope(), "failover.inject", "ro restart: " + node->name());
    node->SetAvailable(false);
    node->ClearLocalBuffer();
    env_->Spawn(RoRecovery(node));
  });
}

sim::Process Cluster::RwRecovery(ComputeNode* failed, int64_t dirty_pages,
                                 int64_t active_txns,
                                 int64_t log_backlog_bytes) {
  const RecoveryModel& rm = cfg_.recovery;
  co_await env_->Delay(rm.detect);
  obs::EmitEvent(env_, Scope(), "failover.detect", "heartbeat timeout");

  ComputeNode* promoted = nullptr;
  if (rm.promote_ro) {
    for (ComputeNode* ro : ro_nodes_) {
      if (ro->available()) {
        promoted = ro;
        break;
      }
    }
  }

  if (promoted != nullptr) {
    // CDB4-style auto switch-over (paper Fig. 7): the cluster manager
    // refuses requests, collects LSNs (prepare), promotes the RO
    // (switch over), then the new RW rolls back in-flight transactions
    // while already serving (recovering).
    promoted->SetAvailable(false);
    obs::EmitEvent(env_, Scope(), "failover.prepare",
                   "refuse requests, collect LSNs");
    co_await env_->Delay(rm.prepare_phase);
    obs::EmitEvent(env_, Scope(), "failover.switchover",
                   "promote " + promoted->name());
    co_await env_->Delay(rm.switchover_phase);

    storage::TableSet* replica_of_promoted = promoted->tables();
    promoted->PromoteToRw(&canonical_tables_, log_mgr_.get());
    // Swap cluster roles: the promoted node leaves the RO set.
    for (size_t i = 0; i < ro_nodes_.size(); ++i) {
      if (ro_nodes_[i] == promoted) {
        ro_nodes_.erase(ro_nodes_.begin() +
                        static_cast<std::ptrdiff_t>(i));
        break;
      }
    }
    current_rw_ = promoted;
    promoted->SetAvailable(true);
    obs::EmitEvent(env_, Scope(), "failover.promote",
                   promoted->name() + " is the new RW");
    obs::EmitEvent(env_, Scope(), "failover.recovering", "rollback via undo",
                   static_cast<double>(active_txns));
    // The new RW serves immediately but at reduced effective capacity
    // while the undo scan and cache re-warming proceed (its ramp starts at
    // service resume).
    env_->Spawn(CapacityRamp(promoted));

    // Journal the model's recovering-phase boundary (what Fig. 7 plots);
    // the per-txn undo tail below may run slightly past it and is reported
    // separately. The scheduled call only appends to the journal, so it
    // cannot perturb the simulation.
    if (obs::Timeline::Get().enabled()) {
      env_->ScheduleCall(env_->Now() + rm.recovering_phase,
                         [this, scope = Scope()] {
                           obs::EmitEvent(env_, scope, "failover.recovered",
                                          "recovering phase complete");
                         });
    }

    co_await env_->Delay(rm.recovering_phase +
                         rm.per_active_txn_undo * static_cast<double>(active_txns));
    obs::EmitEvent(env_, Scope(), "failover.undo_complete",
                   "in-flight transactions rolled back",
                   static_cast<double>(active_txns));

    // The failed node restarts, transforms into an RO over the promoted
    // node's old replica tables, and rejoins.
    failed->DemoteToRo(replica_of_promoted);
    co_await env_->Delay(rm.base_restart);
    failed->SetAvailable(true);
    obs::EmitEvent(env_, Scope(), "failover.rejoin",
                   failed->name() + " rejoined as RO");
    ro_nodes_.push_back(failed);
    rw_recovery_in_flight_ = false;
    co_return;
  }

  co_await InPlaceRecovery(failed, dirty_pages, active_txns,
                           log_backlog_bytes);
}

sim::Process Cluster::InPlaceRecovery(ComputeNode* failed,
                                      int64_t dirty_pages,
                                      int64_t active_txns,
                                      int64_t log_backlog_bytes) {
  const RecoveryModel& rm = cfg_.recovery;
  // Restart-in-place recovery. Log-replay CDBs skip the dirty-page redo
  // entirely (their storage tier already materializes pages); the ARIES
  // write-back engine pays for every dirty page lost plus undo.
  sim::SimTime duration = rm.base_restart + rm.service_handshake;
  duration += rm.per_dirty_page_redo * static_cast<double>(dirty_pages);
  duration += rm.per_active_txn_undo * static_cast<double>(active_txns);
  // Redo of the unflushed log tail (256KB/token equivalent rate).
  duration += sim::Micros(log_backlog_bytes / 64);
  obs::EmitEvent(env_, Scope(), "failover.restart", "restart in place",
                 duration.ToSeconds());
  co_await env_->Delay(duration);
  failed->SetAvailable(true);
  rw_recovery_in_flight_ = false;
  obs::EmitEvent(env_, Scope(), "failover.recovered",
                 failed->name() + " serving again");
  env_->Spawn(CapacityRamp(failed));
}

sim::Process Cluster::RoRecovery(ComputeNode* node) {
  const RecoveryModel& rm = cfg_.recovery;
  co_await env_->Delay(rm.detect + rm.ro_restart + rm.service_handshake);
  node->SetAvailable(true);
  obs::EmitEvent(env_, Scope(), "failover.ro_recovered",
                 node->name() + " serving again");
  env_->Spawn(CapacityRamp(node));
}

sim::Process Cluster::CapacityRamp(ComputeNode* node) {
  const RecoveryModel& rm = cfg_.recovery;
  constexpr int kSteps = 20;
  for (int step = 1; step <= kSteps; ++step) {
    double fraction = rm.ramp_start + (1.0 - rm.ramp_start) *
                                          static_cast<double>(step - 1) /
                                          (kSteps - 1);
    node->SetCapacityFraction(fraction);
    if (step < kSteps) {
      co_await env_->Delay(rm.tps_rampup * (1.0 / kSteps));
    }
  }
}

int64_t Cluster::TotalCommits() const {
  int64_t total = 0;
  for (const auto& node : nodes_) total += node->txn().commits();
  return total;
}

int64_t Cluster::TotalAborts() const {
  int64_t total = 0;
  for (const auto& node : nodes_) total += node->txn().aborts();
  return total;
}

}  // namespace cloudybench::cloud

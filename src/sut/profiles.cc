#include "sut/profiles.h"

#include "net/network.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace cloudybench::sut {

namespace {

using cloud::ActualPricing;
using cloud::ClusterConfig;
using cloud::MissPath;
using cloud::RecoveryModel;
using cloud::ScalingPolicy;
using repl::ReplayMode;
using sim::Micros;
using sim::Millis;
using sim::Seconds;

constexpr int64_t kMb = 1024LL * 1024;
constexpr int64_t kGb = 1024LL * kMb;

/// Applies the control-plane time compression (see MakeProfile docs).
void ScaleControlPlane(ClusterConfig* cfg, double s) {
  auto& a = cfg->autoscaler;
  a.control_interval = a.control_interval * s;
  a.up_delay = a.up_delay * s;
  a.down_cooldown = a.down_cooldown * s;
  a.pause_after_idle = a.pause_after_idle * s;
  a.paused_poll_interval = a.paused_poll_interval * s;
  a.resume_delay = a.resume_delay * s;
  cfg->node.scaling_stall = cfg->node.scaling_stall * s;
  cfg->checkpoint_interval = cfg->checkpoint_interval * s;
}

/// PostgreSQL 15 on a db-class instance with 150 GB local NVMe (Table IV).
/// Coupled architecture: local-buffer misses read the local device, dirty
/// pages are written back, recovery is ARIES (redo dirty pages + undo).
ClusterConfig MakeRds() {
  ClusterConfig cfg;
  cfg.name = "AWS RDS";

  cfg.node.vcores = 4;
  cfg.node.memory_gb = 16;
  cfg.node.buffer_bytes = 128 * kMb;
  cfg.node.memory_gb_per_vcore = 4;
  cfg.node.miss_path = MissPath::kLocalDisk;
  cfg.node.write_back = true;
  cfg.node.dirty_throttle_ratio = 0.60;
  cfg.node.cpu_costs = {Micros(120), Micros(180), Micros(150), Micros(1200)};

  cfg.use_local_disk = true;
  cfg.local_disk.name = "rds-nvme";
  cfg.local_disk.provisioned_iops = 40000;  // NVMe instance storage
  cfg.local_disk.read_latency = Micros(100);
  cfg.local_disk.write_latency = Micros(150);
  cfg.log_device.name = "rds-wal";
  cfg.log_device.provisioned_iops = 20000;
  cfg.log_device.write_latency = Micros(120);

  cfg.storage.name = "rds-unused";  // no disaggregated tier
  cfg.storage_billing_factor = 2.0;  // primary + standby
  cfg.provisioned_iops = 1000;       // billed IOPS (Table V)
  cfg.provisioned_tcp_gbps = 10;

  cfg.replay.mode = ReplayMode::kSequential;
  cfg.replay.apply_cost = Micros(40);
  cfg.replay.ship_interval = Millis(25);  // physical streaming cadence

  cfg.autoscaler.policy = ScalingPolicy::kFixed;
  cfg.autoscaler.min_vcores = 4;
  cfg.autoscaler.max_vcores = 4;

  cfg.checkpoint_interval = Seconds(30);
  cfg.checkpoint_batch_pages = 256;

  cfg.recovery.detect = Seconds(1);
  cfg.recovery.base_restart = Seconds(6);
  cfg.recovery.per_dirty_page_redo = Millis(2);
  cfg.recovery.per_active_txn_undo = Millis(20);
  cfg.recovery.ro_restart = Seconds(4);
  cfg.recovery.tps_rampup = Seconds(24);
  cfg.recovery.ramp_start = 0.05;

  // On-demand db-class instance pricing (vCPU+RAM bundled) with the
  // 10-minute minimum billing the paper calls out for P-Score*.
  cfg.actual_pricing = ActualPricing{"aws-rds", 0.200, 0.010, 0.000115,
                                     0.00015, 0.01, /*min_billable=*/600};
  return cfg;
}

/// Storage-disaggregated CDB (Aurora-like): redo pushed down to a six-way
/// replicated storage service, sequential replay, instant scale-up but
/// gradual scale-down.
ClusterConfig MakeCdb1() {
  ClusterConfig cfg;
  cfg.name = "CDB1";

  cfg.node.vcores = 4;
  cfg.node.memory_gb = 8;
  cfg.node.buffer_bytes = 128 * kMb;
  cfg.node.memory_gb_per_vcore = 2;  // ACU: 1 vCore : 2 GB
  cfg.node.memory_follows_vcores = false;  // enabled by elasticity benches
  cfg.node.buffer_fraction_of_memory = 128.0 / (8 * 1024);
  cfg.node.miss_path = MissPath::kDisaggregatedStorage;
  cfg.node.write_back = false;
  cfg.node.cpu_costs = {Micros(120), Micros(180), Micros(150), Micros(1200)};

  cfg.storage.name = "cdb1-storage";
  cfg.storage.provisioned_iops = 12000;
  cfg.storage.replication_factor = 6;  // Aurora six-way
  cfg.storage.read_latency = Micros(700);
  cfg.storage.write_latency = Micros(300);
  cfg.log_device.name = "cdb1-logtier";
  cfg.log_device.provisioned_iops = 10000;
  cfg.log_device.write_latency = Micros(250);  // includes the network hop
  cfg.storage_billing_factor = 6.0;
  cfg.provisioned_iops = 1000;
  cfg.provisioned_tcp_gbps = 10;
  cfg.extra_memory_gb = 24;  // storage-tier caches (Table V memory column)

  cfg.replay.mode = ReplayMode::kSequential;
  cfg.replay.apply_cost = Micros(60);
  cfg.replay.ship_interval = Millis(300);

  cfg.autoscaler.policy = ScalingPolicy::kReactiveUpGradualDown;
  cfg.autoscaler.min_vcores = 1;
  cfg.autoscaler.max_vcores = 4;
  cfg.autoscaler.quantum_vcores = 0.5;
  cfg.autoscaler.control_interval = Seconds(5);
  cfg.autoscaler.up_delay = Seconds(8);     // ~14 s to scale up w/ detection
  cfg.autoscaler.down_step_vcores = 0.5;
  cfg.autoscaler.down_cooldown = Seconds(70);  // ~480 s from max to min
  // Resizes drop connections for several seconds — the paper measures an
  // 82% throughput loss for CDB1 in serverless mode (§III-C).
  cfg.node.scaling_stall = Seconds(10);

  cfg.recovery.detect = Seconds(1);
  cfg.recovery.base_restart = Seconds(4);
  cfg.recovery.service_handshake = Seconds(1);
  cfg.recovery.per_active_txn_undo = Millis(5);
  cfg.recovery.ro_restart = Seconds(4);
  cfg.recovery.tps_rampup = Seconds(10);
  cfg.recovery.ramp_start = 0.10;

  cfg.actual_pricing = ActualPricing{"cdb1", 0.19, 0.0, 0.0001,
                                     0.00020, 0.0, /*min_billable=*/0};
  return cfg;
}

/// Log-service/page-service CDB (HyperScale-like): tiny buffer, on-demand
/// scaling at ~30 s granularity, elastic-pool multi-tenancy, and the longest
/// replication path (log tier -> page tier).
ClusterConfig MakeCdb2() {
  ClusterConfig cfg;
  cfg.name = "CDB2";

  cfg.node.vcores = 4;
  cfg.node.memory_gb = 12;
  cfg.node.buffer_bytes = 44 * kMb;  // Table IV: 44 MB
  cfg.node.memory_gb_per_vcore = 3;
  cfg.node.buffer_fraction_of_memory = 44.0 / (12 * 1024);
  cfg.node.miss_path = MissPath::kDisaggregatedStorage;
  cfg.node.write_back = false;
  cfg.node.cpu_costs = {Micros(240), Micros(340), Micros(260), Micros(1200)};

  cfg.storage.name = "cdb2-pageservice";
  cfg.storage.provisioned_iops = 8000;
  cfg.storage.replication_factor = 3;
  cfg.storage.read_latency = Micros(900);
  cfg.storage.write_latency = Micros(400);
  cfg.log_device.name = "cdb2-logservice";
  cfg.log_device.provisioned_iops = 40000;
  cfg.log_device.write_latency = Micros(150);  // dedicated fast log tier
  cfg.storage_billing_factor = 3.0;
  cfg.provisioned_iops = 327680;  // Table V: log-service IOPS billing
  cfg.provisioned_tcp_gbps = 10;
  cfg.extra_memory_gb = 8;

  cfg.replay.mode = ReplayMode::kSequential;
  cfg.replay.apply_cost = Micros(80);
  cfg.replay.extra_hop_latency = Micros(300);
  cfg.replay.ship_interval = Seconds(2);  // log->page materialization cadence

  cfg.autoscaler.policy = ScalingPolicy::kOnDemand;
  cfg.autoscaler.min_vcores = 0.5;
  cfg.autoscaler.max_vcores = 4;
  cfg.autoscaler.quantum_vcores = 0.5;
  cfg.autoscaler.control_interval = Seconds(30);  // ~30 s transitions
  cfg.autoscaler.up_delay = Seconds(0);
  cfg.autoscaler.consecutive_low_for_down = 1;
  // On-demand both ways: CDB2 releases capacity whenever demand dips
  // (Table VI shows it scaling at every transition).
  cfg.autoscaler.down_threshold = 0.65;

  cfg.recovery.detect = Seconds(1);
  cfg.recovery.base_restart = Seconds(3);
  cfg.recovery.service_handshake = Seconds(2);
  cfg.recovery.per_active_txn_undo = Millis(5);
  cfg.recovery.ro_restart = Seconds(4);
  cfg.recovery.tps_rampup = Seconds(30);  // longest recovery route
  cfg.recovery.ramp_start = 0.05;

  // The one-hour minimum applies to the elastic pool (multi-tenant)
  // deployments; single instances bill per use.
  cfg.actual_pricing = ActualPricing{"cdb2", 0.42, 0.0, 0.00012,
                                     0.00015, 0.0, /*min_billable=*/0};
  return cfg;
}

/// Compute/log/storage CDB (Neon-like): capacity units of 1 vCore + 2 GB
/// (min 0.25), scale-to-zero with pause/resume, local file cache, parallel
/// log replay, git-style branch multi-tenancy.
ClusterConfig MakeCdb3() {
  ClusterConfig cfg;
  cfg.name = "CDB3";

  cfg.node.vcores = 4;
  cfg.node.memory_gb = 16;
  cfg.node.buffer_bytes = 12 * kGb;  // shared_buffers + 12 GB Local File Cache
  cfg.node.memory_gb_per_vcore = 4;
  cfg.node.memory_follows_vcores = false;  // enabled by elasticity benches
  // Local File Cache: most of the instance memory acts as page cache,
  // which is why CDB3 out-runs CDB1/CDB2 on reads (paper §III-B).
  cfg.node.buffer_fraction_of_memory = 0.75;
  cfg.node.miss_path = MissPath::kDisaggregatedStorage;
  cfg.node.write_back = false;
  // Slightly heavier per-statement CPU than stock PostgreSQL: the compute
  // node speaks the safekeeper/pageserver protocol on the write path.
  cfg.node.cpu_costs = {Micros(150), Micros(220), Micros(180), Micros(1200)};

  cfg.storage.name = "cdb3-pageservers";
  cfg.storage.provisioned_iops = 20000;
  cfg.storage.replication_factor = 3;
  cfg.storage.read_latency = Micros(600);
  cfg.storage.write_latency = Micros(350);
  cfg.log_device.name = "cdb3-safekeepers";
  cfg.log_device.provisioned_iops = 15000;
  cfg.log_device.write_latency = Micros(180);
  cfg.storage_billing_factor = 3.0;
  cfg.provisioned_iops = 1000;
  cfg.provisioned_tcp_gbps = 10;

  cfg.replay.mode = ReplayMode::kParallel;
  cfg.replay.parallel_lanes = 8;
  cfg.replay.apply_cost = Micros(40);
  cfg.replay.ship_interval = Millis(20);

  cfg.autoscaler.policy = ScalingPolicy::kCuPauseResume;
  cfg.autoscaler.min_vcores = 0.25;  // 0.25 CU minimum
  cfg.autoscaler.max_vcores = 4;
  cfg.autoscaler.quantum_vcores = 0.25;
  cfg.autoscaler.control_interval = Seconds(55);  // ~60 s transitions
  cfg.autoscaler.up_delay = Seconds(0);
  // Scale down only on deep idleness: CDB3 holds capacity through the
  // Single Valley's mid-level dip (Table VI "no-scale") but releases it in
  // zero valleys (Fig. 9).
  cfg.autoscaler.consecutive_low_for_down = 1;
  cfg.autoscaler.down_threshold = 0.30;
  cfg.autoscaler.scale_to_zero = true;
  cfg.autoscaler.pause_after_idle = Seconds(40);
  cfg.autoscaler.resume_delay = Millis(900);
  cfg.autoscaler.paused_poll_interval = Millis(500);

  cfg.recovery.detect = Seconds(1);
  cfg.recovery.base_restart = Seconds(6);  // pod reschedule
  cfg.recovery.service_handshake = Seconds(5);
  cfg.recovery.per_active_txn_undo = Millis(5);
  cfg.recovery.ro_restart = Seconds(4);
  cfg.recovery.tps_rampup = Seconds(20);
  cfg.recovery.ramp_start = 0.08;

  cfg.actual_pricing = ActualPricing{"cdb3", 0.16, 0.0, 0.000104,
                                     0.00010, 0.0, /*min_billable=*/0};
  return cfg;
}

/// Memory-disaggregated CDB (PolarDB-MP/GaussDB-like): 16 GB local + 24 GB
/// remote buffer over 10 Gbps RDMA, cache-invalidation coherence, RO->RW
/// promotion on fail-over. Fixed provisioning (no serverless, Table IV).
ClusterConfig MakeCdb4() {
  ClusterConfig cfg;
  cfg.name = "CDB4";

  cfg.node.vcores = 4;
  cfg.node.memory_gb = 16;
  cfg.node.buffer_bytes = 10 * kGb;  // Table IV: 10 GB local buffer
  cfg.node.memory_gb_per_vcore = 4;
  cfg.node.miss_path = MissPath::kRemoteBufferThenStorage;
  cfg.node.write_back = false;
  cfg.node.cpu_costs = {Micros(95), Micros(145), Micros(120), Micros(1200)};

  cfg.storage.name = "cdb4-storage";
  // The storage tier is deliberately modest: the remote buffer pool is
  // designed to absorb the read working set (see the memory ablation
  // bench). 84000 is CDB4's *billed* IOPS (Table V), metered separately.
  cfg.storage.provisioned_iops = 12000;
  cfg.storage.replication_factor = 3;
  cfg.storage.read_latency = Micros(250);
  cfg.storage.write_latency = Micros(300);
  cfg.log_device.name = "cdb4-log";
  cfg.log_device.provisioned_iops = 30000;
  // Commit forces cross the RDMA fabric to the shared log and wait for the
  // storage quorum: cheap CPU but a longer commit latency than RDS's local
  // WAL — which is why RDS wins RW at SF1 and low concurrency (paper
  // §III-B) while CDB4 wins once the CPUs saturate.
  cfg.log_device.write_latency = Micros(600);
  cfg.storage_billing_factor = 3.0;
  cfg.provisioned_iops = 84000;
  cfg.provisioned_tcp_gbps = 0;
  cfg.provisioned_rdma_gbps = 10;  // RDMA is 3x the TCP price (Table III)
  cfg.extra_memory_gb = 24;        // the remote buffer pool

  cfg.remote_buffer = true;
  cfg.remote_buffer_bytes = 24 * kGb;
  cfg.remote_fetch_latency = Micros(2);

  cfg.node_storage_link = net::LinkConfig::Rdma10G("storage");
  cfg.replication_link = net::LinkConfig::Rdma10G("repl");

  cfg.replay.mode = ReplayMode::kRemoteInvalidation;
  cfg.replay.apply_cost = Micros(5);  // one-sided RDMA page refresh
  cfg.replay.ship_interval = Millis(2);

  cfg.autoscaler.policy = ScalingPolicy::kFixed;
  cfg.autoscaler.min_vcores = 4;
  cfg.autoscaler.max_vcores = 4;

  cfg.recovery.detect = Millis(500);  // heartbeat
  cfg.recovery.promote_ro = true;
  cfg.recovery.prepare_phase = Seconds(1);
  cfg.recovery.switchover_phase = Seconds(2);
  cfg.recovery.recovering_phase = Seconds(3);
  cfg.recovery.base_restart = Seconds(4);
  cfg.recovery.per_active_txn_undo = Millis(1);
  cfg.recovery.ro_restart = Seconds(1.5);
  cfg.recovery.tps_rampup = Seconds(4);  // the remote buffer is still warm
  cfg.recovery.ramp_start = 0.30;

  // Premium memory-disaggregated instances: the vendor prices the RDMA
  // fabric and remote-memory hardware into the vCore rate, which is what
  // drags CDB4's starred scores below CDB3's in the paper's Table IX.
  cfg.actual_pricing = ActualPricing{"cdb4", 1.20, 0.014, 0.00012,
                                     0.00018, 0.30, /*min_billable=*/0};
  return cfg;
}

}  // namespace

const char* SutName(SutKind kind) {
  switch (kind) {
    case SutKind::kAwsRds:
      return "AWS RDS";
    case SutKind::kCdb1:
      return "CDB1";
    case SutKind::kCdb2:
      return "CDB2";
    case SutKind::kCdb3:
      return "CDB3";
    case SutKind::kCdb4:
      return "CDB4";
  }
  return "?";
}

util::Result<SutKind> ParseSut(std::string_view name) {
  std::string lower = util::ToLower(name);
  if (lower == "rds" || lower == "aws rds") return SutKind::kAwsRds;
  if (lower == "cdb1") return SutKind::kCdb1;
  if (lower == "cdb2") return SutKind::kCdb2;
  if (lower == "cdb3") return SutKind::kCdb3;
  if (lower == "cdb4") return SutKind::kCdb4;
  return util::Status::InvalidArgument("unknown sut: " + std::string(name));
}

std::vector<SutKind> AllSuts() {
  return {SutKind::kAwsRds, SutKind::kCdb1, SutKind::kCdb2, SutKind::kCdb3,
          SutKind::kCdb4};
}

bool IsServerless(SutKind kind) {
  switch (kind) {
    case SutKind::kAwsRds:
    case SutKind::kCdb4:
      return false;
    case SutKind::kCdb1:
    case SutKind::kCdb2:
    case SutKind::kCdb3:
      return true;
  }
  return false;
}

cloud::ClusterConfig MakeProfile(SutKind kind, double time_scale) {
  CB_CHECK_GT(time_scale, 0.0);
  ClusterConfig cfg;
  switch (kind) {
    case SutKind::kAwsRds:
      cfg = MakeRds();
      break;
    case SutKind::kCdb1:
      cfg = MakeCdb1();
      break;
    case SutKind::kCdb2:
      cfg = MakeCdb2();
      break;
    case SutKind::kCdb3:
      cfg = MakeCdb3();
      break;
    case SutKind::kCdb4:
      cfg = MakeCdb4();
      break;
  }
  if (time_scale != 1.0) {
    ScaleControlPlane(&cfg, time_scale);
  }
  return cfg;
}

void FreezeAtMaxCapacity(cloud::ClusterConfig* config) {
  config->autoscaler.policy = ScalingPolicy::kFixed;
  config->node.vcores = config->autoscaler.max_vcores;
  config->node.memory_follows_vcores = false;
}

void EnableServerless(cloud::ClusterConfig* config) {
  if (config->autoscaler.policy == ScalingPolicy::kFixed) return;
  config->node.memory_follows_vcores = true;
  config->node.vcores = config->autoscaler.min_vcores;
  config->node.memory_gb =
      config->autoscaler.min_vcores * config->node.memory_gb_per_vcore;
}

}  // namespace cloudybench::sut

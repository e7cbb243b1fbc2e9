#include "runner/oltp_cell.h"

#include "core/evaluators.h"
#include "runner/sharded_cell.h"
#include "util/logging.h"

namespace cloudybench::runner {

cloud::ClusterConfig ClusterConfigFor(const CellSpec& spec) {
  cloud::ClusterConfig cfg = sut::MakeProfile(spec.sut, spec.time_scale);
  if (spec.serverless) sut::EnableServerless(&cfg);
  if (spec.freeze_at_max) sut::FreezeAtMaxCapacity(&cfg);
  return cfg;
}

CellDeployment::CellDeployment(
    const CellSpec& spec, const std::vector<storage::TableSchema>& schemas)
    : CellDeployment(spec, ClusterConfigFor(spec), schemas) {}

CellDeployment::CellDeployment(
    const CellSpec& spec, const cloud::ClusterConfig& config,
    const std::vector<storage::TableSchema>& schemas) {
  cluster = std::make_unique<cloud::Cluster>(&env, config, spec.n_ro);
  cluster->Load(schemas, spec.scale_factor);
  cluster->PrewarmBuffers();
  sampler.Start();
}

SalesWorkloadConfig SalesConfigFor(const CellSpec& spec) {
  SalesWorkloadConfig cfg;
  if (spec.pattern == "RO") {
    cfg = SalesWorkloadConfig::ReadOnly();
  } else if (spec.pattern == "RW") {
    cfg = SalesWorkloadConfig::ReadWrite();
  } else if (spec.pattern == "WO") {
    cfg = SalesWorkloadConfig::WriteOnly();
  } else {
    CB_CHECK(false) << "RunOltpCell: unknown workload pattern '"
                    << spec.pattern << "' (expected RO/RW/WO)";
  }
  cfg.seed = spec.seed;
  return cfg;
}

CellResult RunOltpCell(const CellContext& ctx) {
  const CellSpec& spec = ctx.spec;
  // Multi-tenant specs route through the tenant-sharded cell, which calls
  // back here once per tenant with `tenants` folded to 1 — every existing
  // MatrixRunner sweep gains --cell-shards support without touching its
  // call sites.
  if (spec.tenants > 1) return RunTenantShardedCell(ctx);
  SalesTransactionSet txns(SalesConfigFor(spec));
  CellDeployment rig(spec, txns.Schemas());

  OltpEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  options.metrics_export_path = ctx.metrics_path;
  OltpResult r =
      OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);

  CellResult result;
  result.AddMetric("tps", r.mean_tps, 0);
  result.AddMetric("p50_ms", r.p50_latency_ms, 2);
  result.AddMetric("p99_ms", r.p99_latency_ms, 2);
  result.AddMetric("commits", static_cast<double>(r.commits), 0);
  result.AddMetric("aborts", static_cast<double>(r.aborts), 0);
  result.AddMetric("cost_per_min", r.cost_per_minute.total(), 4);
  result.AddMetric("cost_cpu", r.cost_per_minute.cpu, 4);
  result.AddMetric("cost_mem", r.cost_per_minute.memory, 4);
  result.AddMetric("cost_storage", r.cost_per_minute.storage, 4);
  result.AddMetric("cost_iops", r.cost_per_minute.iops, 4);
  result.AddMetric("cost_net", r.cost_per_minute.network, 4);
  result.AddMetric("p_score", r.p_score, 0);
  result.AddMetric("buffer_hit_pct", r.buffer_hit_rate * 100.0, 1);

  // Mean allocated resources over the whole cell — the Table V columns.
  cloud::ResourceVector alloc =
      rig.cluster->meter().MeanAllocated(0, rig.env.Now().ToSeconds());
  result.AddMetric("vcores", alloc.vcores, 0);
  result.AddMetric("memory_gb", alloc.memory_gb, 0);
  result.AddMetric("storage_gb", alloc.storage_gb, 1);
  result.AddMetric("iops", alloc.iops, 0);
  result.AddMetric("net_gbps", alloc.tcp_gbps + alloc.rdma_gbps, 0);

  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

}  // namespace cloudybench::runner

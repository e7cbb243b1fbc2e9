#include "runner/oltp_cell.h"

#include <algorithm>

#include "core/evaluators.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/string_util.h"

namespace cloudybench::runner {

namespace {

/// Merge rule for one RunOltpCell column. Additive quantities (throughput,
/// counts, cost, allocated resources) sum across tenants; intensive ones
/// (latency quantiles, scores, hit rates) take the commit-weighted mean.
struct MergeKey {
  const char* name;
  int precision;  ///< RunOltpCell's AddMetric precision for the column
  bool weighted;
};

constexpr MergeKey kMergeKeys[] = {
    {"tps", 0, false},          {"p50_ms", 2, true},
    {"p99_ms", 2, true},        {"commits", 0, false},
    {"aborts", 0, false},       {"cost_per_min", 4, false},
    {"cost_cpu", 4, false},     {"cost_mem", 4, false},
    {"cost_storage", 4, false}, {"cost_iops", 4, false},
    {"cost_net", 4, false},     {"p_score", 0, true},
    {"buffer_hit_pct", 1, true}, {"vcores", 0, false},
    {"memory_gb", 0, false},    {"storage_gb", 1, false},
    {"iops", 0, false},         {"net_gbps", 0, false},
};

}  // namespace

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
  return RunOltpWorkloadCell(ctx, SalesConfigFor(ctx.spec));
}

CellResult RunOltpWorkloadCell(const CellContext& ctx,
                               const SalesWorkloadConfig& workload) {
  const CellSpec& spec = ctx.spec;
  SalesTransactionSet txns(workload);
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

CellSpec TenantSpec(const CellSpec& cell, int tenant) {
  CellSpec t = cell;
  t.id = (cell.id.empty() ? DefaultCellId(cell) : cell.id) + "/tenant" +
         std::to_string(tenant);
  // Seed splits on the tenant *index*, never on worker placement, so every
  // tenant's simulation is a pure function of (cell seed, index).
  t.seed = util::SplitSeed(cell.seed, util::kTenantStream,
                           static_cast<uint64_t>(tenant));
  return t;
}

CellResult MergeTenantRows(const CellSpec& cell,
                           const std::vector<CellResult>& tenant_results) {
  const int tenants = static_cast<int>(tenant_results.size());
  CellResult merged;
  int ok_tenants = 0;
  double weight_total = 0;
  for (int i = 0; i < tenants; ++i) {
    const CellResult& r = tenant_results[static_cast<size_t>(i)];
    if (!r.ok) {
      if (merged.error.empty()) {
        merged.error = util::StringPrintf("tenant %d: %s", i, r.error.c_str());
      }
      continue;
    }
    ++ok_tenants;
    weight_total += r.Number("commits");
  }
  for (const MergeKey& key : kMergeKeys) {
    double acc = 0;
    for (const CellResult& r : tenant_results) {
      if (!r.ok) continue;
      double v = r.Number(key.name);
      if (!key.weighted) {
        acc += v;
        continue;
      }
      // Commit-weighted mean; plain mean when nothing committed anywhere
      // so a zero-commit row still reports finite latencies.
      double w = weight_total > 0
                     ? r.Number("commits") / weight_total
                     : 1.0 / static_cast<double>(std::max(ok_tenants, 1));
      acc += v * w;
    }
    merged.AddMetric(key.name, acc, key.precision);
  }
  // Per-tenant throughput columns (the multi-tenancy tables' idiom). A
  // failed tenant reports 0 so the column set never depends on the failure
  // shape.
  for (int i = 0; i < tenants; ++i) {
    const CellResult& r = tenant_results[static_cast<size_t>(i)];
    merged.AddMetric(util::StringPrintf("t%d_tps", i),
                     r.ok ? r.Number("tps") : 0.0, 0);
    if (r.ok) merged.sim_seconds += r.sim_seconds;
  }
  merged.ok = merged.error.empty();
  merged.id = cell.id.empty()
                  ? DefaultCellId(cell) + util::StringPrintf("/t%d", tenants)
                  : cell.id;
  return merged;
}

}  // namespace cloudybench::runner

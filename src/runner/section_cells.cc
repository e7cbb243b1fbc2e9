#include "runner/section_cells.h"

#include <algorithm>
#include <string>

#include "core/evaluators.h"
#include "core/metrics.h"
#include "core/tenancy.h"
#include "runner/oltp_cell.h"
#include "util/string_util.h"

namespace cloudybench::runner {

CellResult RunFailoverCell(const CellContext& ctx,
                           const SalesWorkloadConfig& workload, bool sticky_ro,
                           double target_tps) {
  const CellSpec& spec = ctx.spec;
  bool fail_rw = spec.pattern == "RW";
  SalesWorkloadConfig cfg = workload;
  cfg.route_reads_to_replicas = !fail_rw;
  cfg.sticky_replica = !fail_rw && sticky_ro;
  SalesTransactionSet txns(cfg);
  CellDeployment rig(spec, txns.Schemas());
  FailoverEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.fail_rw = fail_rw;
  options.target_tps = target_tps;
  options.max_observation = spec.measure;
  FailoverResult r =
      FailoverEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);

  CellResult result;
  result.AddMetric("f_s", r.service_lost ? r.f_seconds : 0.0, 1);
  result.AddMetric("r_s", r.service_lost ? r.r_seconds : 0.0, 1);
  result.AddMetric("service_lost", r.service_lost ? 1.0 : 0.0, 0);
  result.AddMetric("pre_failure_tps", r.pre_failure_tps, 0);
  result.AddMetric("target_tps", r.target_tps, 0);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

CellResult RunLagCell(const CellContext& ctx, int insert_pct, int update_pct,
                      int delete_pct) {
  const CellSpec& spec = ctx.spec;
  CellDeployment rig(spec, sales::Schemas());
  LagTimeEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  options.insert_pct = insert_pct;
  options.update_pct = update_pct;
  options.delete_pct = delete_pct;
  options.seed = spec.seed;
  LagTimeResult r =
      LagTimeEvaluator::Run(&rig.env, rig.cluster.get(), options);
  CellResult result;
  result.AddMetric("insert_lag_ms", r.insert_lag_ms, 2);
  result.AddMetric("update_lag_ms", r.update_lag_ms, 2);
  result.AddMetric("delete_lag_ms", r.delete_lag_ms, 2);
  result.AddMetric("c_score", r.c_score, 2);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

CellResult RunElasticityCell(const CellContext& ctx,
                             const SalesWorkloadConfig& workload,
                             const std::vector<int>& schedule,
                             sim::SimTime slot) {
  SalesTransactionSet txns(workload);
  CellDeployment rig(ctx.spec, txns.Schemas());
  ElasticityEvaluator::Options options;
  options.slot = slot;
  ElasticityResult r = ElasticityEvaluator::RunSchedule(
      &rig.env, rig.cluster.get(), &txns, schedule, options);

  std::string label = "(";
  for (size_t i = 0; i < r.schedule.size(); ++i) {
    if (i > 0) label += ',';
    label += std::to_string(r.schedule[i]);
  }
  label += ')';
  CellResult result;
  result.AddText("schedule", label);
  result.AddMetric("tps", r.mean_tps, 0);
  result.AddMetric("total_cost", r.total_cost.total(), 4);
  // "ScaledCost" isolates the components elasticity actually varies
  // (cpu+mem+iops, the E1 denominator) — this is where the paper's 9-12x
  // fixed-vs-CDB3 cost gap lives; storage+network are flat.
  result.AddMetric("scaled_cost",
                   r.total_cost.cpu + r.total_cost.memory + r.total_cost.iops,
                   4);
  result.AddMetric("e1_score", r.e1_score, 0);
  cloud::CostBreakdown actual = rig.cluster->meter().ActualCost(
      rig.cluster->config().actual_pricing, r.window_start_s, r.window_end_s);
  result.AddMetric(
      "e1_star",
      metrics::E1Score(r.mean_tps,
                       actual.PerMinute(r.window_end_s - r.window_start_s)),
      0);
  result.AddMetric("scaling_events",
                   static_cast<double>(r.scaling_events.size()), 0);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

CellResult RunTenancyCell(const CellContext& ctx, TenancyPattern pattern,
                          int tenants, int slots, sim::SimTime slot) {
  const CellSpec& spec = ctx.spec;
  sim::Environment env;
  MultiTenantDeployment deployment(&env, spec.sut, tenants, spec.scale_factor,
                                   spec.time_scale);
  MultiTenancyEvaluator::Options options;
  options.slots = slots;
  options.slot = slot;
  options.tau = spec.concurrency;
  TenancyResult r =
      MultiTenancyEvaluator::Run(&env, &deployment, pattern, options);

  cloud::ResourceVector res = deployment.TotalResources();
  auto f0 = [](double v) { return util::FormatDouble(v, 0); };
  CellResult result;
  result.AddMetric("tps", r.total_tps, 0);
  result.AddMetric("t_score", r.t_score, 0);
  result.AddText("resources", f0(res.vcores) + "vC " + f0(res.memory_gb) +
                                  "GB " + f0(res.storage_gb) + "GBsto " +
                                  f0(res.iops) + "iops " +
                                  f0(res.tcp_gbps + res.rdma_gbps) + "Gbps");
  result.AddMetric("cost_per_min", r.cost_per_minute.total(), 4);
  // Cost-efficiency per unit of work: dollars billed over the measured
  // window and thousands of committed transactions, which Table VII pools
  // across the four patterns into one $/kTxn number.
  result.AddMetric("dollars", r.cost_per_minute.total() * r.window_s / 60.0,
                   6);
  result.AddMetric("ktxn", static_cast<double>(r.total_commits) / 1000.0, 3);
  // T* prices the deployment with the vendor's actual model. The elastic
  // pool bills at least one hour (scaled like the control plane) — the
  // quirk that demotes CDB2's T* in the paper.
  double window_s = slots * slot.ToSeconds();
  double billed_s = deployment.model() == TenancyModel::kElasticPool
                        ? std::max(window_s, 3600.0 * spec.time_scale)
                        : window_s;
  cloud::CostBreakdown actual =
      deployment.tenant(0)->config().actual_pricing.CostFor(res, billed_s);
  result.AddMetric(
      "t_star", metrics::TScore(r.tenant_tps, actual.total() * 60.0 / window_s),
      0);
  result.sim_seconds = env.Now().ToSeconds();
  return result;
}

}  // namespace cloudybench::runner

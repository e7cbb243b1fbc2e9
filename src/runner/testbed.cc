#include "runner/testbed.h"

#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/evaluators.h"
#include "core/patterns.h"
#include "core/sales_workload.h"
#include "core/tenancy.h"
#include "obs/exporters.h"
#include "obs/trace.h"
#include "runner/oltp_cell.h"
#include "sim/environment.h"
#include "sut/profiles.h"
#include "util/string_util.h"

namespace cloudybench::runner {

namespace {

using util::Status;

/// The paper's per-slot concurrency keys: first_con, second_con, ...
const char* kSlotConKeys[] = {"first_con",  "second_con", "third_con",
                              "fourth_con", "fifth_con",  "sixth_con",
                              "seventh_con", "eighth_con"};

}  // namespace

Testbed::Testbed(util::Properties props) : props_(std::move(props)) {}

util::Status Testbed::RunAll() {
  CB_ASSIGN_OR_RETURN(sut_name_, props_.RequireString("sut"));
  CB_ASSIGN_OR_RETURN(spec_.sut, sut::ParseSut(sut_name_));
  spec_.scale_factor = props_.GetInt("scale_factor", 1);
  spec_.n_ro = 1;
  std::printf("CloudyBench testbed — SUT %s, SF%lld, seed %lld\n\n",
              sut::SutName(spec_.sut),
              static_cast<long long>(spec_.scale_factor),
              static_cast<long long>(props_.GetInt("seed", 42)));
  obs::TraceRecorder::Get().SetEnabled(props_.GetBool("obs.enable", false));
  ReportWriter report(props_.GetString("output.csv_dir", ""));
  if (props_.GetBool("oltp.enable", true)) {
    CB_RETURN_IF_ERROR(RunOltp(&report));
  }
  if (props_.GetBool("elasticity.enable", false)) {
    CB_RETURN_IF_ERROR(RunElasticity(&report));
  }
  if (props_.GetBool("tenancy.enable", false)) {
    CB_RETURN_IF_ERROR(RunTenancy(&report));
  }
  if (props_.GetBool("failover.enable", false)) {
    CB_RETURN_IF_ERROR(RunFailover(&report));
  }
  if (props_.GetBool("lag.enable", false)) CB_RETURN_IF_ERROR(RunLag(&report));

  // Observability exports (see DESIGN.md "Observability"): `obs.enable`
  // turns the trace recorder on for the whole run; the optional paths dump
  // a Perfetto-loadable Chrome trace and a metrics snapshot at the end.
  if (obs::TraceRecorder::Get().enabled()) {
    std::string trace_path = props_.GetString("obs.trace_path", "");
    if (!trace_path.empty()) {
      CB_RETURN_IF_ERROR(
          obs::WriteChromeTraceFile(obs::TraceRecorder::Get(), trace_path));
      std::printf("obs: wrote Chrome trace to %s (%zu spans)\n",
                  trace_path.c_str(), obs::TraceRecorder::Get().span_count());
    }
  }
  return report.WriteCsvFiles();
}

namespace {
SalesWorkloadConfig WorkloadFromProps(const util::Properties& props) {
  std::string pattern =
      util::ToLower(props.GetString("workload.pattern", "readwrite"));
  SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadWrite();
  if (pattern == "readonly") cfg = SalesWorkloadConfig::ReadOnly();
  if (pattern == "writeonly") cfg = SalesWorkloadConfig::WriteOnly();
  if (util::ToLower(props.GetString("workload.distribution", "uniform")) ==
      "latest") {
    cfg.distribution = AccessDistribution::kLatest;
    cfg.latest_k = props.GetInt("workload.latest_k", 10);
  }
  cfg.seed = static_cast<uint64_t>(props.GetInt("seed", 42));
  return cfg;
}
}  // namespace

util::Status Testbed::RunOltp(ReportWriter* report) {
  SalesTransactionSet txns(WorkloadFromProps(props_));
  CellDeployment rig(spec_, txns.Schemas());

  OltpEvaluator::Options options;
  options.concurrency =
      static_cast<int>(props_.GetInt("oltp.concurrency", 100));
  options.measure = sim::Seconds(
      static_cast<double>(props_.GetInt("oltp.seconds", 10)));
  options.metrics_export_path = props_.GetString("obs.metrics_path", "");
  OltpResult r =
      OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);
  std::printf("[oltp]       TPS %.0f  p50 %.2fms  p99 %.2fms  cost %.4f$/min"
              "  P-Score %.0f\n",
              r.mean_tps, r.p50_latency_ms, r.p99_latency_ms,
              r.cost_per_minute.total(), r.p_score);
  report->AddOltp(sut_name_, r);
  return Status::OK();
}

util::Status Testbed::RunElasticity(ReportWriter* report) {
  // Either a named basic pattern, or the paper's extensible custom schedule
  // via elastic_testTime + first_con/second_con/...
  int64_t custom_slots = props_.GetInt("elasticity.elastic_testTime", 0);
  if (custom_slots > static_cast<int64_t>(std::size(kSlotConKeys))) {
    return Status::InvalidArgument(
        "elasticity.elastic_testTime = " + std::to_string(custom_slots) +
        " exceeds the " + std::to_string(std::size(kSlotConKeys)) +
        " slots first_con..eighth_con can describe");
  }
  CellSpec spec = spec_;
  spec.n_ro = 0;
  spec.time_scale = props_.GetDouble("time_scale", 0.1);
  spec.serverless = true;
  spec.freeze_at_max = false;
  SalesTransactionSet txns(WorkloadFromProps(props_));
  CellDeployment rig(spec, txns.Schemas());

  ElasticityEvaluator::Options options;
  options.tau = static_cast<int>(props_.GetInt("elasticity.tau", 110));
  options.slot = sim::Seconds(props_.GetDouble("elasticity.slot_seconds", 6));

  ElasticityResult result;
  if (custom_slots > 0) {
    std::vector<int> schedule;
    for (int64_t i = 0; i < custom_slots; ++i) {
      schedule.push_back(static_cast<int>(props_.GetInt(
          std::string("elasticity.") + kSlotConKeys[i], 0)));
    }
    result = ElasticityEvaluator::RunSchedule(&rig.env, rig.cluster.get(),
                                              &txns, schedule, options);
  } else {
    std::string name =
        util::ToLower(props_.GetString("elasticity.pattern", "spike"));
    ElasticityPattern pattern = ElasticityPattern::kLargeSpike;
    if (name == "peak") pattern = ElasticityPattern::kSinglePeak;
    if (name == "valley") pattern = ElasticityPattern::kSingleValley;
    if (name == "zero") pattern = ElasticityPattern::kZeroValley;
    result = ElasticityEvaluator::Run(&rig.env, rig.cluster.get(), &txns,
                                      pattern, options);
  }

  std::printf("[elasticity] schedule (");
  for (size_t i = 0; i < result.schedule.size(); ++i) {
    std::printf("%s%d", i > 0 ? "," : "", result.schedule[i]);
  }
  std::printf(")  TPS %.0f  total cost %.4f$  E1-Score %.0f  "
              "%zu scaling events\n",
              result.mean_tps, result.total_cost.total(), result.e1_score,
              result.scaling_events.size());
  report->AddElasticity(sut_name_, result);
  return Status::OK();
}

util::Status Testbed::RunTenancy(ReportWriter* report) {
  std::string name =
      util::ToLower(props_.GetString("tenancy.pattern", "staggered_high"));
  TenancyPattern pattern = TenancyPattern::kStaggeredHigh;
  if (name == "high") pattern = TenancyPattern::kHighContention;
  if (name == "low") pattern = TenancyPattern::kLowContention;
  if (name == "staggered_low") pattern = TenancyPattern::kStaggeredLow;

  sim::Environment env;
  MultiTenantDeployment deployment(
      &env, spec_.sut, static_cast<int>(props_.GetInt("tenancy.tenants", 3)),
      spec_.scale_factor);
  MultiTenancyEvaluator::Options options;
  options.tau = static_cast<int>(props_.GetInt("tenancy.tau", 330));
  options.slot = sim::Seconds(props_.GetDouble("tenancy.slot_seconds", 6));
  options.slots = static_cast<int>(props_.GetInt("tenancy.slots", 3));
  TenancyResult r =
      MultiTenancyEvaluator::Run(&env, &deployment, pattern, options);
  std::printf("[tenancy]    %s on %s: total TPS %.0f  cost %.4f$/min  "
              "T-Score %.0f\n",
              TenancyPatternName(pattern),
              TenancyModelName(deployment.model()), r.total_tps,
              r.cost_per_minute.total(), r.t_score);
  report->AddTenancy(sut_name_, r);
  return Status::OK();
}

util::Status Testbed::RunFailover(ReportWriter* report) {
  SalesWorkloadConfig workload_cfg = WorkloadFromProps(props_);
  workload_cfg.route_reads_to_replicas =
      util::ToLower(props_.GetString("failover.node", "rw")) != "rw";
  SalesTransactionSet txns(workload_cfg);
  CellDeployment rig(spec_, txns.Schemas());

  FailoverEvaluator::Options options;
  options.concurrency =
      static_cast<int>(props_.GetInt("failover.concurrency", 150));
  options.fail_rw =
      util::ToLower(props_.GetString("failover.node", "rw")) == "rw";
  options.target_tps = props_.GetDouble("failover.target_tps", 3000);
  FailoverResult r =
      FailoverEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);
  std::printf("[failover]   %s restart: F %.1fs  R %.1fs  "
              "(pre-failure TPS %.0f, target %.0f)\n",
              options.fail_rw ? "RW" : "RO", r.f_seconds, r.r_seconds,
              r.pre_failure_tps, r.target_tps);
  report->AddFailover(sut_name_, r);
  return Status::OK();
}

util::Status Testbed::RunLag(ReportWriter* report) {
  CellDeployment rig(spec_, sales::Schemas());

  LagTimeEvaluator::Options options;
  options.concurrency = static_cast<int>(props_.GetInt("lag.concurrency", 20));
  options.insert_pct = static_cast<int>(props_.GetInt("lag.insert", 60));
  options.update_pct = static_cast<int>(props_.GetInt("lag.update", 30));
  options.delete_pct = static_cast<int>(props_.GetInt("lag.delete", 10));
  options.seed = static_cast<uint64_t>(props_.GetInt("seed", 42));
  LagTimeResult r = LagTimeEvaluator::Run(&rig.env, rig.cluster.get(), options);
  std::printf("[lag]        insert %.2fms  update %.2fms  delete %.2fms  "
              "C-Score %.2f\n",
              r.insert_lag_ms, r.update_lag_ms, r.delete_lag_ms, r.c_score);
  report->AddLag(sut_name_, r);
  return Status::OK();
}

}  // namespace cloudybench::runner

#include "runner/testbed.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluators.h"
#include "core/patterns.h"
#include "core/sales_workload.h"
#include "core/tenancy.h"
#include "runner/oltp_cell.h"
#include "runner/section_cells.h"
#include "sut/profiles.h"
#include "util/string_util.h"

namespace cloudybench::runner {

namespace {

using util::Status;

/// The paper's per-slot concurrency keys: first_con, second_con, ...
const char* kSlotConKeys[] = {"first_con",  "second_con", "third_con",
                              "fourth_con", "fifth_con",  "sixth_con",
                              "seventh_con", "eighth_con"};

/// Every key the testbed reads besides `elasticity.<kSlotConKeys>`.
const char* kKeys[] = {
    "sut", "scale_factor", "seed", "time_scale", "workload.pattern",
    "workload.distribution", "workload.latest_k", "oltp.enable",
    "oltp.concurrency", "oltp.seconds", "elasticity.enable", "elasticity.tau",
    "elasticity.slot_seconds", "elasticity.pattern",
    "elasticity.elastic_testTime", "tenancy.enable", "tenancy.tenants",
    "tenancy.tau", "tenancy.slot_seconds", "tenancy.slots", "tenancy.pattern",
    "failover.enable", "failover.node", "failover.concurrency",
    "failover.target_tps", "lag.enable", "lag.concurrency", "lag.insert",
    "lag.update", "lag.delete"};

/// Props keys whose value must be one of a fixed `|`-separated set.
const std::pair<const char*, const char*> kChoiceKeys[] = {
    {"workload.pattern", "readwrite|readonly|writeonly"},
    {"workload.distribution", "uniform|latest"},
    {"elasticity.pattern", "peak|spike|valley|zero"},
    {"tenancy.pattern", "high|low|staggered_high|staggered_low"},
    {"failover.node", "rw|ro"}};

bool IsKnownKey(const std::string& key) {
  for (const char* known : kKeys) {
    if (key == known) return true;
  }
  for (const char* con : kSlotConKeys) {
    if (key == std::string("elasticity.") + con) return true;
  }
  return false;
}

/// One enabled props section: the cell it runs as, and its report line —
/// `line` with each `%s` replaced by the row's next `columns` value.
struct Section {
  CellSpec spec;
  CellFn run;
  std::string line;
  std::vector<const char*> columns;
};

void PrintReport(const Section& section, const CellResult& row) {
  std::string out = section.line;
  size_t at = 0;
  for (const char* key : section.columns) {
    std::string value = row.Text(key);
    at = out.find("%s", at);
    out.replace(at, 2, value);
    at += value.size();
  }
  std::fputs(out.c_str(), stdout);
}

Section OltpSection(const util::Properties& props, const CellSpec& base,
                    const SalesWorkloadConfig& workload) {
  CellSpec spec = base;
  spec.id = "oltp";
  spec.concurrency = static_cast<int>(props.GetInt("oltp.concurrency", 100));
  spec.warmup = OltpEvaluator::Options().warmup;
  spec.measure =
      sim::Seconds(static_cast<double>(props.GetInt("oltp.seconds", 10)));
  return {spec,
          [workload](const CellContext& ctx) {
            return RunOltpWorkloadCell(ctx, workload);
          },
          "[oltp]       TPS %s  p50 %sms  p99 %sms  cost %s$/min  "
          "P-Score %s\n",
          {"tps", "p50_ms", "p99_ms", "cost_per_min", "p_score"}};
}

util::Result<Section> ElasticitySection(const util::Properties& props,
                                        const CellSpec& base,
                                        const SalesWorkloadConfig& workload) {
  // Either a named basic pattern, or the paper's extensible custom schedule
  // via elastic_testTime + first_con/second_con/...
  int64_t custom_slots = props.GetInt("elasticity.elastic_testTime", 0);
  if (custom_slots > static_cast<int64_t>(std::size(kSlotConKeys))) {
    return Status::InvalidArgument(
        "elasticity.elastic_testTime = " + std::to_string(custom_slots) +
        " exceeds the " + std::to_string(std::size(kSlotConKeys)) +
        " slots first_con..eighth_con can describe");
  }
  CellSpec spec = base;
  spec.id = "elasticity";
  spec.n_ro = 0;
  spec.concurrency = static_cast<int>(props.GetInt("elasticity.tau", 110));
  spec.time_scale = props.GetDouble("time_scale", 0.1);
  spec.serverless = true;
  spec.freeze_at_max = false;
  std::vector<int> schedule;
  for (int64_t i = 0; i < custom_slots; ++i) {
    schedule.push_back(static_cast<int>(
        props.GetInt(std::string("elasticity.") + kSlotConKeys[i], 0)));
  }
  if (schedule.empty()) {
    std::string name =
        util::ToLower(props.GetString("elasticity.pattern", "spike"));
    ElasticityPattern pattern = ElasticityPattern::kLargeSpike;
    if (name == "peak") pattern = ElasticityPattern::kSinglePeak;
    if (name == "valley") pattern = ElasticityPattern::kSingleValley;
    if (name == "zero") pattern = ElasticityPattern::kZeroValley;
    schedule = ElasticitySchedule(pattern, spec.concurrency);
  }
  sim::SimTime slot =
      sim::Seconds(props.GetDouble("elasticity.slot_seconds", 6));
  return Section{spec,
                 [workload, schedule, slot](const CellContext& ctx) {
                   return RunElasticityCell(ctx, workload, schedule, slot);
                 },
                 "[elasticity] schedule %s  TPS %s  total cost %s$  "
                 "E1-Score %s  %s scaling events\n",
                 {"schedule", "tps", "total_cost", "e1_score",
                  "scaling_events"}};
}

Section TenancySection(const util::Properties& props, const CellSpec& base) {
  std::string name =
      util::ToLower(props.GetString("tenancy.pattern", "staggered_high"));
  TenancyPattern pattern = TenancyPattern::kStaggeredHigh;
  if (name == "high") pattern = TenancyPattern::kHighContention;
  if (name == "low") pattern = TenancyPattern::kLowContention;
  if (name == "staggered_low") pattern = TenancyPattern::kStaggeredLow;
  int tenants = static_cast<int>(props.GetInt("tenancy.tenants", 3));
  int slots = static_cast<int>(props.GetInt("tenancy.slots", 3));
  sim::SimTime slot = sim::Seconds(props.GetDouble("tenancy.slot_seconds", 6));
  CellSpec spec = base;
  spec.id = "tenancy";
  spec.concurrency = static_cast<int>(props.GetInt("tenancy.tau", 330));
  spec.pattern = TenancyPatternName(pattern);
  return {spec,
          [pattern, tenants, slots, slot](const CellContext& ctx) {
            return RunTenancyCell(ctx, pattern, tenants, slots, slot);
          },
          util::StringPrintf("[tenancy]    %s on %s: ", spec.pattern.c_str(),
                             TenancyModelName(TenancyModelFor(spec.sut))) +
              "total TPS %s  cost %s$/min  T-Score %s\n",
          {"tps", "cost_per_min", "t_score"}};
}

Section FailoverSection(const util::Properties& props, const CellSpec& base,
                        const SalesWorkloadConfig& workload) {
  FailoverEvaluator::Options defaults;
  CellSpec spec = base;
  spec.id = "failover";
  spec.pattern =
      util::ToLower(props.GetString("failover.node", "rw")) == "rw" ? "RW"
                                                                     : "RO";
  spec.concurrency =
      static_cast<int>(props.GetInt("failover.concurrency", 150));
  spec.warmup = defaults.warmup;
  spec.measure = defaults.max_observation;
  double target_tps = props.GetDouble("failover.target_tps", 3000);
  return {spec,
          [workload, target_tps](const CellContext& ctx) {
            return RunFailoverCell(ctx, workload, /*sticky_ro=*/false,
                                   target_tps);
          },
          "[failover]   " + spec.pattern +
              " restart: F %ss  R %ss  (pre-failure TPS %s, target %s)\n",
          {"f_s", "r_s", "pre_failure_tps", "target_tps"}};
}

Section LagSection(const util::Properties& props, const CellSpec& base) {
  LagTimeEvaluator::Options defaults;
  int insert = static_cast<int>(props.GetInt("lag.insert", 60));
  int update = static_cast<int>(props.GetInt("lag.update", 30));
  int del = static_cast<int>(props.GetInt("lag.delete", 10));
  CellSpec spec = base;
  spec.id = "lag";
  spec.concurrency = static_cast<int>(props.GetInt("lag.concurrency", 20));
  spec.warmup = defaults.warmup;
  spec.measure = defaults.measure;
  return {spec,
          [insert, update, del](const CellContext& ctx) {
            return RunLagCell(ctx, insert, update, del);
          },
          "[lag]        insert %sms  update %sms  delete %sms  C-Score %s\n",
          {"insert_lag_ms", "update_lag_ms", "delete_lag_ms", "c_score"}};
}

}  // namespace

Testbed::Testbed(util::Properties props, RunnerOptions runner)
    : props_(std::move(props)), runner_(std::move(runner)) {}

util::Status Testbed::RunAll() {
  for (const std::string& key : props_.KeysWithPrefix("")) {
    if (!IsKnownKey(key)) {
      return Status::InvalidArgument(key + " = '" + props_.GetString(key, "") +
                                     "': unknown key");
    }
  }
  CellSpec base;
  CB_ASSIGN_OR_RETURN(std::string sut_name, props_.RequireString("sut"));
  CB_ASSIGN_OR_RETURN(base.sut, sut::ParseSut(sut_name));
  for (const auto& [key, accepted] : kChoiceKeys) {
    std::string value = util::ToLower(props_.GetString(key, ""));
    std::vector<std::string> names = util::Split(accepted, '|');
    if (props_.Has(key) &&
        std::find(names.begin(), names.end(), value) == names.end()) {
      return Status::InvalidArgument(std::string(key) + " = '" + value +
                                     "': expected one of " + accepted);
    }
  }
  // The throughput-style deployment every section starts from: one RO
  // replica, pinned at max capacity, running the [workload] mix.
  base.scale_factor = props_.GetInt("scale_factor", 1);
  base.n_ro = 1;
  std::string mix =
      util::ToLower(props_.GetString("workload.pattern", "readwrite"));
  base.pattern = mix == "readonly" ? "RO" : mix == "writeonly" ? "WO" : "RW";
  base.seed = static_cast<uint64_t>(props_.GetInt("seed", 42));
  SalesWorkloadConfig workload = SalesConfigFor(base);
  if (util::ToLower(props_.GetString("workload.distribution", "uniform")) ==
      "latest") {
    workload.distribution = AccessDistribution::kLatest;
    workload.latest_k = props_.GetInt("workload.latest_k", 10);
  }

  std::vector<Section> sections;
  if (props_.GetBool("oltp.enable", true)) {
    sections.push_back(OltpSection(props_, base, workload));
  }
  if (props_.GetBool("elasticity.enable", false)) {
    CB_ASSIGN_OR_RETURN(Section s, ElasticitySection(props_, base, workload));
    sections.push_back(std::move(s));
  }
  if (props_.GetBool("tenancy.enable", false)) {
    sections.push_back(TenancySection(props_, base));
  }
  if (props_.GetBool("failover.enable", false)) {
    sections.push_back(FailoverSection(props_, base, workload));
  }
  if (props_.GetBool("lag.enable", false)) {
    sections.push_back(LagSection(props_, base));
  }

  std::printf("CloudyBench testbed — SUT %s, SF%lld, seed %lld\n\n",
              sut::SutName(base.sut),
              static_cast<long long>(base.scale_factor),
              static_cast<long long>(base.seed));
  std::vector<CellSpec> cells;
  for (const Section& s : sections) cells.push_back(s.spec);
  std::vector<CellResult> rows = MatrixRunner(runner_).Run(
      cells, [&sections](const CellContext& ctx) {
        return sections[ctx.index].run(ctx);
      });
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!rows[i].ok) {
      return Status::Internal(rows[i].id + ": " + rows[i].error);
    }
    PrintReport(sections[i], rows[i]);
  }
  return Status::OK();
}

}  // namespace cloudybench::runner

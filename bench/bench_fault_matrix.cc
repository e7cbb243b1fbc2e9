// Availability matrix: the six built-in fault scenarios (crash, crash-loop,
// correlated RW+RO crash, link degradation, disk fail-slow, replay stall)
// against all five SUT architectures, with the graceful-degradation
// machinery (fetch deadlines + backoff, RO circuit breaker, RW load
// shedding) armed. Per cell: availability % during/after the fault window,
// goodput, in-fault p99 latency, recovery seconds, and the degradation
// counters.
//
// Every cell is an independent deterministic simulation on the experiment-
// matrix runner; output is byte-identical at any --jobs. Scenario schedules
// are kept as plan *strings* and run through the production --faults=
// parser, so the matrix also exercises the plan grammar end to end.

#include <cstdio>

#include "bench_common.h"
#include "cloud/degradation.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "fault/scenarios.h"

namespace cloudybench::bench {
namespace {

/// The fault window the evaluator brackets: from the first injection to the
/// last clear, extended to cover restart-model recovery for crash kinds
/// (which have no duration of their own) and clamped into the measurement.
sim::SimTime FaultWindowEnd(const fault::FaultPlan& plan,
                            sim::SimTime measure) {
  sim::SimTime end = plan.LastClearAt();
  sim::SimTime crash_floor = plan.FirstInjectAt() + sim::Seconds(15);
  if (crash_floor > end) end = crash_floor;
  if (end > measure) end = measure;
  return end;
}

runner::CellResult RunFaultCell(const runner::CellContext& ctx,
                                const fault::FaultPlan& plan) {
  const runner::CellSpec& spec = ctx.spec;
  SalesWorkloadConfig workload = SalesWorkloadConfig::ReadWrite();
  workload.seed = spec.seed;
  SalesTransactionSet txns(workload);
  runner::CellDeployment rig(spec, txns.Schemas());
  rig.cluster->EnableDegradation(cloud::DegradationPolicy{});
  fault::FaultInjector injector(&rig.env, rig.cluster.get());

  AvailabilityEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  options.fault_start = plan.FirstInjectAt();
  options.fault_end = FaultWindowEnd(plan, spec.measure);
  options.arm = [&injector, &plan](sim::SimTime base) {
    injector.Arm(plan, base);
  };
  AvailabilityResult r = AvailabilityEvaluator::Run(
      &rig.env, rig.cluster.get(), &txns, options);

  runner::CellResult result;
  result.AddMetric("availability_pct", r.availability_pct, 1);
  result.AddMetric("baseline_tps", r.baseline_tps, 0);
  result.AddMetric("goodput_tps", r.goodput_tps, 0);
  result.AddMetric("fault_p99_ms", r.fault_p99_ms, 2);
  result.AddMetric("recovery_s", r.recovery_seconds, 1);
  result.AddText("recovered", r.recovered ? "yes" : "no");
  result.AddMetric("commits", static_cast<double>(r.commits), 0);
  result.AddMetric("faults_armed",
                   static_cast<double>(injector.injected()), 0);
  result.AddMetric("faults_skipped",
                   static_cast<double>(injector.skipped()), 0);
  result.AddMetric("fetch_timeouts",
                   static_cast<double>(rig.cluster->TotalFetchTimeouts()), 0);
  result.AddMetric("shed_rejects",
                   static_cast<double>(rig.cluster->TotalShedRejects()), 0);
  result.AddMetric(
      "breaker_opens",
      static_cast<double>(rig.cluster->degradation()->breaker_opens()), 0);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

void Run(const char* argv0, const BenchArgs& args,
         const std::string& custom_plan, bool smoke) {
  // Scenario list: the six built-ins, or one "custom" scenario from
  // --faults=. --smoke keeps a representative pair for CI determinism
  // diffs (jobs=1 vs jobs=2 must produce identical bytes).
  std::vector<fault::Scenario> scenarios;
  if (!custom_plan.empty()) {
    scenarios.push_back({"custom", "plan from --faults=", custom_plan});
  } else {
    scenarios = fault::BuiltinScenarios();
    if (smoke) {
      scenarios = {*fault::FindScenario("crash"),
                   *fault::FindScenario("link-degrade")};
    }
  }
  // Parse every plan up front (strict): one bad spec fails the whole run
  // before any simulation starts.
  std::vector<fault::FaultPlan> plans;
  for (const fault::Scenario& scenario : scenarios) {
    plans.push_back(PlanOrExit(fault::ParseFaultPlan(scenario.plan), argv0,
                               "fault plan", fault::FaultPlanHelp()));
  }

  std::vector<sut::SutKind> suts = sut::AllSuts();
  sim::SimTime measure = smoke ? sim::Seconds(25) : sim::Seconds(45);

  // Matrix order: scenario (outer) -> SUT (inner); the table printing
  // below indexes on it.
  std::vector<runner::CellSpec> cells;
  for (const fault::Scenario& scenario : scenarios) {
    for (sut::SutKind kind : suts) {
      runner::CellSpec spec;
      spec.sut = kind;
      spec.scale_factor = 1;
      spec.n_ro = 2;  // breaker + replay faults need replicas to bite
      spec.concurrency = 100;
      spec.pattern = scenario.name;
      spec.seed = args.seed;
      spec.warmup = sim::Seconds(5);
      spec.measure = measure;
      cells.push_back(spec);
    }
  }

  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(
          cells, [&plans, &suts](const runner::CellContext& ctx) {
            return RunFaultCell(ctx, plans[ctx.index / suts.size()]);
          });

  std::printf(
      "=== Availability under injected faults (1 RW + 2 RO, con=100) ===\n");
  size_t idx = 0;
  for (const fault::Scenario& scenario : scenarios) {
    util::TablePrinter table({"System", "avail%", "goodput", "p99(f) ms",
                              "recov s", "timeouts", "sheds", "breaker"});
    for (size_t s = 0; s < suts.size(); ++s) {
      const runner::CellResult& r = results[idx++];
      if (!r.ok) {
        table.AddRow({sut::SutName(suts[s]), "ERR", "-", "-", "-", "-", "-",
                      "-"});
        continue;
      }
      table.AddRow({sut::SutName(suts[s]), r.Text("availability_pct"),
                    r.Text("goodput_tps"), r.Text("fault_p99_ms"),
                    r.Text("recovery_s") +
                        (r.Text("recovered") == "yes" ? "" : "*"),
                    r.Text("fetch_timeouts"), r.Text("shed_rejects"),
                    r.Text("breaker_opens")});
    }
    table.Print("\n--- " + scenario.name + ": " + scenario.description +
                " ---");
  }
  std::printf(
      "\n(* = TPS never sustained 90%% of baseline inside the "
      "observation window)\n");
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  std::string faults;
  std::string smoke;
  cloudybench::bench::BenchArgs args = cloudybench::bench::BenchArgs::Parse(
      argc, argv,
      {{"--faults=", &faults,
        "custom fault plan (replaces the built-in scenarios)"},
       {"--smoke", &smoke, "two-scenario subset for CI determinism checks"}});
  cloudybench::bench::Run(argv[0], args, faults, !smoke.empty());
  return 0;
}

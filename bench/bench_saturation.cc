// Saturation curves: open-loop arrival-process load against all five SUT
// architectures. Each rung of an offered-load ladder admits a Poisson
// arrival schedule as independent logical sessions (OpenLoopDriver) and
// reports goodput vs offered load plus client-perceived latency measured
// from each arrival's *scheduled* instant — a saturated SUT accrues the
// queueing delay of every user who arrived while it was stalled, so the
// curves are free of coordinated omission (the closed-loop benches, whose
// workers politely wait, cannot show this knee).
//
// Every cell is an independent deterministic simulation on the experiment-
// matrix runner; output is byte-identical at any --jobs. --arrivals=
// replaces the ladder with a custom plan run through the production
// grammar (process=poisson|mmpp|fixed, shapes diurnal/ramp/spike,
// per-tenant streams); --faults= arms a fault plan under the open loop.

#include <cstdio>

#include "bench_common.h"
#include "cloud/degradation.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "load/arrival.h"
#include "load/open_loop.h"

namespace cloudybench::bench {
namespace {

/// One ladder rung: a label for tables/ids and the plan it runs.
struct Rung {
  std::string label;
  load::ArrivalPlan plan;
};

runner::CellResult RunSaturationCell(const runner::CellContext& ctx,
                                     const Rung& rung,
                                     const fault::FaultPlan& faults) {
  const runner::CellSpec& spec = ctx.spec;
  SalesWorkloadConfig workload = SalesWorkloadConfig::ReadWrite();
  workload.seed = spec.seed;
  SalesTransactionSet txns(workload);
  runner::CellDeployment rig(spec, txns.Schemas());

  fault::FaultInjector injector(&rig.env, rig.cluster.get());
  if (!faults.empty()) {
    rig.cluster->EnableDegradation(cloud::DegradationPolicy{});
    injector.Arm(faults, rig.env.Now());
  }

  load::OpenLoopOptions options;
  options.seed = spec.seed;
  options.horizon = spec.measure;
  options.drain = sim::Seconds(2);
  options.metrics_export_path = ctx.metrics_path;
  load::OpenLoopResult r = load::OpenLoopDriver::Run(
      &rig.env, rig.cluster.get(), &txns, rung.plan, options);

  runner::CellResult result;
  result.AddMetric("offered_tps", r.offered_tps, 0);
  result.AddMetric("goodput_tps", r.goodput_tps, 0);
  result.AddMetric("commits", static_cast<double>(r.commits), 0);
  result.AddMetric("aborts", static_cast<double>(r.aborts), 0);
  result.AddMetric("unavail", static_cast<double>(r.unavailable), 0);
  result.AddMetric("incomplete", static_cast<double>(r.incomplete), 0);
  result.AddMetric("p50_ms", r.p50_ms, 2);
  result.AddMetric("p99_ms", r.p99_ms, 2);
  result.AddMetric("lag_p99_ms", r.lag_p99_ms, 2);
  result.AddMetric("inflight_hwm", static_cast<double>(r.inflight_hwm), 0);
  result.AddMetric("pool_hwm", static_cast<double>(r.session_pool_hwm), 0);
  if (!faults.empty()) {
    result.AddMetric("faults_armed",
                     static_cast<double>(injector.injected()), 0);
  }
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

void Run(const char* argv0, const BenchArgs& args, const std::string& arrivals,
         const std::string& faults_text, bool smoke) {
  // The offered-load ladder, or one "custom" rung from --arrivals=.
  // --smoke keeps a two-SUT × two-rung subset for CI determinism diffs
  // (jobs=1 vs jobs=2 must produce identical bytes).
  std::vector<Rung> rungs;
  if (!arrivals.empty()) {
    rungs.push_back({"custom", PlanOrExit(load::ParseArrivalPlan(arrivals),
                                          argv0, "arrival plan",
                                          load::ArrivalPlanHelp())});
  } else {
    // Rungs bracket the knee: every SUT absorbs the low rungs with
    // single-digit in-flight sessions; the top rungs exceed sustainable
    // goodput, so the backlog (and open-loop latency) grows without bound.
    std::vector<double> rates;
    if (smoke) {
      rates = {200, 400};
    } else if (args.full) {
      rates = {1000, 2000, 5000, 10000, 20000, 40000, 80000};
    } else {
      rates = {1000, 5000, 20000, 50000};
    }
    for (double rate : rates) {
      load::ArrivalSpec stream;
      stream.process = load::ArrivalProcess::kPoisson;
      stream.rate = rate;
      stream.tenant = "t0";
      load::ArrivalPlan plan;
      plan.streams.push_back(stream);
      rungs.push_back({F0(rate) + "ps", plan});
    }
  }
  fault::FaultPlan fault_plan;
  if (!faults_text.empty()) {
    fault_plan = PlanOrExit(fault::ParseFaultPlan(faults_text), argv0,
                            "fault plan", fault::FaultPlanHelp());
  }

  std::vector<sut::SutKind> suts = sut::AllSuts();
  if (smoke) suts = {suts[0], suts[2]};
  sim::SimTime measure = smoke ? sim::Seconds(8) : sim::Seconds(15);

  // Matrix order: SUT (outer) -> rung (inner); the per-SUT curve tables
  // below index on it.
  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    for (const Rung& rung : rungs) {
      runner::CellSpec spec;
      spec.sut = kind;
      spec.scale_factor = 1;
      spec.n_ro = 1;
      spec.concurrency = 0;  // open loop: no closed-loop worker pool
      spec.pattern = "open-" + rung.label;
      spec.seed = args.seed;
      spec.warmup = sim::SimTime{0};
      spec.measure = measure;
      cells.push_back(spec);
    }
  }

  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(
          cells, [&rungs, &fault_plan](const runner::CellContext& ctx) {
            return RunSaturationCell(ctx, rungs[ctx.index % rungs.size()],
                                     fault_plan);
          });

  std::printf(
      "=== Open-loop saturation: goodput vs offered load (1 RW + 1 RO) "
      "===\n");
  size_t idx = 0;
  for (sut::SutKind kind : suts) {
    util::TablePrinter table({"Offered", "goodput", "commits", "p50 ms",
                              "p99 ms", "lag p99", "inflight", "incomplete"});
    for (size_t r = 0; r < rungs.size(); ++r) {
      const runner::CellResult& row = results[idx++];
      if (!row.ok) {
        table.AddRow({rungs[r].label, "ERR", "-", "-", "-", "-", "-", "-"});
        continue;
      }
      table.AddRow({row.Text("offered_tps"), row.Text("goodput_tps"),
                    row.Text("commits"), row.Text("p50_ms"),
                    row.Text("p99_ms"), row.Text("lag_p99_ms"),
                    row.Text("inflight_hwm"), row.Text("incomplete")});
    }
    table.Print("\n--- " + std::string(sut::SutName(kind)) +
                ": arrivals/s offered vs committed/s ---");
  }
  std::printf(
      "\n(latencies measured from each arrival's scheduled instant — "
      "queueing during saturation is included)\n");
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  std::string arrivals;
  std::string faults;
  std::string smoke;
  cloudybench::bench::BenchArgs args = cloudybench::bench::BenchArgs::Parse(
      argc, argv,
      {{"--arrivals=", &arrivals,
        "custom arrival plan (replaces the offered-load ladder)"},
       {"--faults=", &faults, "fault plan to arm under the open loop"},
       {"--smoke", &smoke, "two-SUT subset for CI determinism checks"}});
  cloudybench::bench::Run(argv[0], args, arrivals, faults, !smoke.empty());
  return 0;
}

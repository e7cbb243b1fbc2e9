// Reproduces Table VI: time interval and scaling cost during autoscaling of
// the three serverless CDBs across the four elastic patterns.
//
// Paper shapes: CDB1 scales up fast (~14 s) but down very slowly (~480 s,
// and keeps billing while doing so); CDB2 completes every transition within
// its ~30 s on-demand tick; CDB3 takes ~60 s per transition and *fails to
// scale down* for the Single Valley's short dip (consecutive-low gating),
// while consuming the least resources overall.
//
// Runs with compressed slots (time-scale 0.1); reported times are scaled
// back to the paper's 60 s-slot equivalent.

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

constexpr double kTimeScale = 0.1;

runner::CellResult RunScalingCell(const runner::CellContext& ctx,
                                  ElasticityPattern pattern) {
  SalesTransactionSet txns(runner::SalesConfigFor(ctx.spec));
  runner::CellDeployment rig(ctx.spec, txns.Schemas());
  sim::SimTime slot = sim::Seconds(60 * kTimeScale);
  ElasticityEvaluator::Options options;
  options.tau = ctx.spec.concurrency;
  options.slot = slot;
  // Extend the window so slow scale-down (CDB1) is observable.
  options.cost_window_slots = 12;
  ElasticityResult r = ElasticityEvaluator::Run(&rig.env, rig.cluster.get(),
                                                &txns, pattern, options);

  // Per slot boundary: settle time = last capacity change observed within
  // the window following the workload change.
  runner::CellResult result;
  int transitions = 0;
  const std::vector<int>& schedule = r.schedule;
  double slot_s = slot.ToSeconds();
  double window_end = slot_s * static_cast<double>(options.cost_window_slots);
  for (size_t boundary = 0; boundary <= schedule.size(); ++boundary) {
    int from_con = boundary == 0 ? 0 : schedule[boundary - 1];
    int to_con = boundary < schedule.size() ? schedule[boundary] : 0;
    if (from_con == to_con) continue;
    double t0 = static_cast<double>(boundary) * slot_s;
    // The observation window for this transition runs until the offered
    // load changes again (gradual scale-down needs the whole idle tail).
    double t1 = window_end;
    for (size_t next = boundary + 1; next <= schedule.size(); ++next) {
      int next_from = schedule[next - 1];
      int next_to = next < schedule.size() ? schedule[next] : 0;
      if (next_from != next_to) {
        t1 = static_cast<double>(next) * slot_s;
        break;
      }
    }
    double settle = -1;
    for (const cloud::ScalingEvent& ev : r.scaling_events) {
      if (ev.time_s >= t0 && ev.time_s < t1) settle = ev.time_s - t0;
    }
    std::string n = std::to_string(transitions++);
    result.AddText("transition" + n,
                   std::to_string(from_con) + "->" + std::to_string(to_con));
    result.AddText("settle" + n, settle < 0 ? std::string("no-scale")
                                            : F0(settle / kTimeScale) + "s");
    result.AddMetric("cost" + n,
                     rig.cluster->meter().RucCost(t0, t1).total(), 4);
    result.AddMetric(
        "vcores" + n,
        rig.cluster->meter().vcores_series().MeanInWindow(t0, t1), 2);
  }
  result.AddMetric("transitions", transitions, 0);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

void Run(const BenchArgs& args) {
  std::vector<sut::SutKind> suts = {sut::SutKind::kCdb1, sut::SutKind::kCdb2,
                                    sut::SutKind::kCdb3};
  std::vector<ElasticityPattern> patterns = AllElasticityPatterns();

  // Matrix order: SUT (outer) -> pattern (inner), the pattern named in the id.
  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    for (ElasticityPattern pattern : patterns) {
      runner::CellSpec spec;
      spec.sut = kind;
      spec.concurrency = 110;  // tau
      spec.seed = args.seed;
      spec.serverless = true;
      spec.freeze_at_max = false;
      spec.time_scale = kTimeScale;
      spec.id =
          runner::DefaultCellId(spec) + "/" + ElasticityPatternName(pattern);
      cells.push_back(spec);
    }
  }
  std::vector<runner::CellResult> results = runner::MatrixRunner(args.runner)
      .Run(cells, [&patterns](const runner::CellContext& ctx) {
        return RunScalingCell(ctx, patterns[ctx.index % patterns.size()]);
      });

  std::printf(
      "=== Table VI: scaling time and cost per slot transition "
      "(reported at paper 60s-slot scale) ===\n\n");
  util::TablePrinter table({"System", "Pattern", "Transition", "ScalingTime",
                            "SlotCost", "MeanVcores"});
  size_t idx = 0;
  for (sut::SutKind kind : suts) {
    for (ElasticityPattern pattern : patterns) {
      const runner::CellResult& r = results[idx++];
      for (int i = 0; i < static_cast<int>(r.Number("transitions")); ++i) {
        std::string n = std::to_string(i);
        table.AddRow({sut::SutName(kind), ElasticityPatternName(pattern),
                      r.Text("transition" + n), r.Text("settle" + n),
                      "$" + r.Text("cost" + n), r.Text("vcores" + n)});
      }
      table.AddSeparator();
    }
  }
  table.Print();
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

// Reproduces Table IX: the overall "PERFECT" evaluation — P, E1, E2, R, F,
// C, T scores and the unified O-Score for every SUT, plus the starred
// variants (P*, E1*, T*, O*) computed with each vendor's *actual* pricing
// model instead of the unified resource unit cost.
//
// Paper shapes: CDB4 wins the O-Score (fastest recovery and replication);
// AWS RDS has the best P/T/E2 but the worst recovery; CDB3 has the best E1
// and, thanks to its cheap startup pricing, the best O-Score* under actual
// cost — the defined-vs-actual rank flips are the point of the comparison.
//
// Each SUT is eleven sub-cells (the section benches' cells plus a P/E2
// throughput cell); its row is a pure fold of their result rows.

#include <algorithm>
#include <cstdio>
#include <span>
#include <utility>

#include "bench_common.h"
#include "core/metrics.h"

namespace cloudybench::bench {
namespace {

constexpr double kTimeScale = 0.1;

/// One SUT's sub-cells in matrix order (then one per tenancy pattern).
enum SubCell : size_t { kP, kE1, kE2Ro0, kE2Ro1, kFailRw, kFailRo, kLag,
                        kTenancy, kSubCells = kTenancy + 4 };

/// P and E2: sales throughput at spec.concurrency. "RW" is the P stream;
/// "RO" is E2's read stream, spread over every node (proxy-balanced reads).
/// Columns: tps, p_score, p_star (P at the vendor's actual pricing).
runner::CellResult RunThroughputCell(const runner::CellContext& ctx) {
  const runner::CellSpec& spec = ctx.spec;
  SalesWorkloadConfig cfg = runner::SalesConfigFor(spec);
  cfg.spread_reads_all_nodes = spec.pattern == "RO";
  SalesTransactionSet txns(cfg);
  runner::CellDeployment rig(spec, txns.Schemas());
  OltpEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  OltpResult r =
      OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);
  cloud::CostBreakdown actual = rig.cluster->meter().ActualCost(
      rig.cluster->config().actual_pricing, r.window_start_s, r.window_end_s);
  runner::CellResult result;
  result.AddMetric("tps", r.mean_tps, 0);
  result.AddMetric("p_score", r.p_score, 0);
  result.AddMetric(
      "p_star",
      metrics::PScore(r.mean_tps,
                      actual.PerMinute(r.window_end_s - r.window_start_s)),
      0);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

/// Appends one SUT's sub-cell specs, in SubCell order.
void AddSubCells(sut::SutKind kind, uint64_t seed,
                 std::vector<runner::CellSpec>* cells) {
  auto add = [&](const std::string& name, int n_ro, int concurrency,
                 const std::string& pattern, double warmup_s,
                 double measure_s) -> runner::CellSpec& {
    runner::CellSpec& spec = cells->emplace_back();
    spec.id = std::string(sut::SutName(kind)) + "/" + name;
    spec.sut = kind;
    spec.n_ro = n_ro;
    spec.concurrency = concurrency;
    spec.pattern = pattern;
    spec.seed = seed;
    spec.warmup = sim::Seconds(warmup_s);
    spec.measure = sim::Seconds(measure_s);
    return spec;
  };
  add("P", 0, 150, "RW", 1, 3);
  // E1: tau 110, serverless SUTs autoscaling.
  runner::CellSpec& e1 = add("E1", 0, 110, "RW", 1, 2);
  e1.serverless = true;
  e1.freeze_at_max = false;
  e1.time_scale = kTimeScale;
  add("E2/RO0", 0, 150, "RO", 1, 2);
  add("E2/RO1", 1, 150, "RO", 1, 2);
  add("F/RW", 1, 150, "RW", 4, 80);
  add("F/RO", 1, 150, "RO", 4, 80);
  add("C", 3, 20, "I60/U30/D10", 2, 5);  // 3 replicas: Eq. 6's divisor
  for (TenancyPattern pattern : AllTenancyPatterns()) {
    bool high = pattern == TenancyPattern::kHighContention ||
                pattern == TenancyPattern::kStaggeredHigh;
    add(std::string("T/") + TenancyPatternName(pattern), 0, high ? 330 : 100,
        TenancyPatternName(pattern), 1, 2)
        .time_scale = kTimeScale;
  }
}

runner::CellResult RunSubCell(const runner::CellContext& ctx) {
  size_t sub = ctx.index % kSubCells;
  sim::SimTime slot = sim::Seconds(60 * kTimeScale);
  if (sub >= kTenancy) {
    return runner::RunTenancyCell(ctx, AllTenancyPatterns()[sub - kTenancy],
                                  /*tenants=*/3, runner::kTenancySlots, slot);
  }
  if (sub == kE1) {
    return runner::RunElasticityCell(
        ctx, runner::SalesConfigFor(ctx.spec),
        ElasticitySchedule(ElasticityPattern::kLargeSpike,
                           ctx.spec.concurrency),
        slot);
  }
  if (sub == kFailRw || sub == kFailRo) {  // as Table VIII
    return runner::RunFailoverCell(ctx, runner::SalesConfigFor(ctx.spec),
                                   /*sticky_ro=*/true, /*target_tps=*/-1);
  }
  if (sub == kLag) return runner::RunLagCell(ctx, 60, 30, 10);
  return RunThroughputCell(ctx);  // P, E2
}

/// Table IX's scores for one SUT from its sub-cell rows (SubCell order):
/// at the unified resource unit cost, and with P, E1 and T — hence O —
/// at the vendor's actual pricing (the starred columns).
std::pair<metrics::Perfect, metrics::Perfect> Fold(
    std::span<const runner::CellResult> rows) {
  metrics::Perfect ruc;
  ruc.p = rows[kP].Number("p_score");
  ruc.e1 = rows[kE1].Number("e1_score");
  // Normalized like the paper's small integers: gain per node per 1000.
  ruc.e2 = metrics::E2Score({rows[kE2Ro0].Number("tps"),
                             rows[kE2Ro1].Number("tps")}) /
           1000.0;
  std::vector<double> f_parts, r_parts;
  for (size_t i : {kFailRw, kFailRo}) {
    if (rows[i].Number("service_lost") == 1) {
      f_parts.push_back(rows[i].Number("f_s"));
      r_parts.push_back(rows[i].Number("r_s"));
    }
  }
  ruc.f = metrics::FScore(f_parts);
  ruc.r = metrics::RScore(r_parts);
  ruc.c = rows[kLag].Number("c_score");
  // T / T*: the average over the four tenancy patterns.
  double t_sum = 0, t_star_sum = 0;
  for (size_t i = kTenancy; i < kSubCells; ++i) {
    t_sum += rows[i].Number("t_score");
    t_star_sum += rows[i].Number("t_star");
  }
  ruc.t = t_sum / static_cast<double>(kSubCells - kTenancy);
  metrics::Perfect actual = ruc;
  actual.p = rows[kP].Number("p_star");
  actual.e1 = rows[kE1].Number("e1_star");
  actual.t = t_star_sum / static_cast<double>(kSubCells - kTenancy);
  ruc.FinalizeOScore();
  actual.FinalizeOScore();
  return {ruc, actual};
}

void Run(const BenchArgs& args) {
  std::vector<sut::SutKind> suts = sut::AllSuts();
  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) AddSubCells(kind, args.seed, &cells);
  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(cells, RunSubCell);

  std::printf(
      "=== Table IX: overall PERFECT scores; (X)* uses vendor actual "
      "pricing ===\n\n");
  util::TablePrinter table({"System", "P", "P*", "E1", "E1*", "R", "F", "E2",
                            "C", "T", "T*", "O", "O*"});
  for (size_t s = 0; s < suts.size(); ++s) {
    std::span<const runner::CellResult> rows(&results[s * kSubCells],
                                             kSubCells);
    std::vector<std::string> row{sut::SutName(suts[s])};
    if (std::all_of(rows.begin(), rows.end(),
                    [](const runner::CellResult& r) { return r.ok; })) {
      auto [ruc, actual] = Fold(rows);
      row.insert(row.end(),
                 {F0(ruc.p), F0(actual.p), F0(ruc.e1), F0(actual.e1),
                  F1(ruc.r), F1(ruc.f), F1(ruc.e2), F1(ruc.c), F0(ruc.t),
                  F0(actual.t), F2(ruc.o), F2(actual.o)});
    } else {
      row.resize(13, "ERR");  // every column
    }
    table.AddRow(row);
  }
  table.Print();
  std::printf(
      "\nE2 is reported as TPS gain per added RO node / 1000; R, F in "
      "seconds; C in ms.\n");
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

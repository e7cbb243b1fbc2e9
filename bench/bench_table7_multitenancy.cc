// Reproduces Table VII: multi-tenancy evaluation — per-pattern TPS, total
// deployed resources, cost, and T-Score for three tenants under the four
// contention patterns of §II-D.
//
// Paper shapes: isolated instances (CDB4/RDS/CDB1) win the high-contention
// pattern (a) — no interference — but bill network/IOPS per tenant; CDB2's
// shared elastic pool wins the staggered patterns (c)(d) at the lowest cost
// (all pool resources flow to the one active tenant); CDB3's branch
// isolation leaves it worst on staggered-low.

#include <cstdio>

#include "bench_common.h"
#include "core/tenancy.h"

namespace cloudybench::bench {
namespace {

constexpr double kTimeScale = 0.1;

void Run(const BenchArgs& args) {
  std::vector<sut::SutKind> suts = sut::AllSuts();
  std::vector<TenancyPattern> patterns = AllTenancyPatterns();

  // Matrix order: SUT (outer) -> pattern (inner).
  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    for (TenancyPattern pattern : patterns) {
      bool high = pattern == TenancyPattern::kHighContention ||
                  pattern == TenancyPattern::kStaggeredHigh;
      runner::CellSpec spec;
      spec.sut = kind;
      // tau: the max saturation concurrency across SUTs (paper) for the
      // high patterns, the min for the low ones.
      spec.concurrency = high ? 330 : 100;
      spec.pattern = TenancyPatternName(pattern);
      spec.seed = args.seed;
      spec.time_scale = kTimeScale;
      cells.push_back(spec);
    }
  }
  std::vector<runner::CellResult> results = runner::MatrixRunner(args.runner)
      .Run(cells, [&patterns](const runner::CellContext& ctx) {
        return runner::RunTenancyCell(
            ctx, patterns[ctx.index % patterns.size()], /*tenants=*/3,
            runner::kTenancySlots, sim::Seconds(60 * kTimeScale));
      });

  std::printf(
      "=== Table VII: multi-tenancy (3 tenants, %d slots of %.0fs) ===\n\n",
      runner::kTenancySlots, 60 * kTimeScale);
  util::TablePrinter table({"System", "Model", "TPS(a)", "TPS(b)", "TPS(c)",
                            "TPS(d)", "Resources", "$/min", "T(a)", "T(b)",
                            "T(c)", "T(d)", "T(AVG)", "$/kTxn"});
  for (size_t s = 0; s < suts.size(); ++s) {
    std::vector<std::string> tps, tscore;
    double t_sum = 0, dollars = 0, ktxn = 0;
    for (size_t p = 0; p < patterns.size(); ++p) {
      const runner::CellResult& r = results[s * patterns.size() + p];
      tps.push_back(r.ok ? r.Text("tps") : "ERR");
      tscore.push_back(r.Text("t_score"));
      t_sum += r.Number("t_score");
      dollars += r.Number("dollars");
      ktxn += r.Number("ktxn");
    }
    // Resources and $/min come from the last pattern's cell.
    const runner::CellResult& last = results[(s + 1) * patterns.size() - 1];
    double dollars_per_ktxn = ktxn > 0 ? dollars / ktxn : 0;
    table.AddRow({sut::SutName(suts[s]),
                  TenancyModelName(TenancyModelFor(suts[s])), tps[0], tps[1],
                  tps[2], tps[3], last.Text("resources"),
                  "$" + last.Text("cost_per_min"), tscore[0], tscore[1],
                  tscore[2], tscore[3], F0(t_sum / 4.0),
                  // 6 decimals: a kTxn costs fractions of a tenth of a cent
                  // here, so the shared 4-decimal format would print
                  // $0.0000 for every efficient deployment.
                  "$" + util::FormatDouble(dollars_per_ktxn, 6)});
  }
  table.Print();
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

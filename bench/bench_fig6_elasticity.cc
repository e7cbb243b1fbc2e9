// Reproduces Figure 6: elasticity evaluation — average TPS, total cost
// (execution + scaling) and E1-Score for the four elastic patterns under
// read-only / read-write / write-only modes at SF1.
//
// Paper shapes: performance rank CDB4 > RDS > CDB2 > CDB3 > CDB1 (fixed
// configurations trade cost for TPS); the fixed SUTs' cost is an order of
// magnitude above CDB3's (on-demand + pause/resume); E1 rank
// CDB3 > CDB2 > CDB4 > RDS > CDB1.
//
// Time slots are compressed (6 s per slot, control-plane constants scaled
// by 0.1) — scaling behaviour is proportionally identical to the paper's
// 60 s slots; see DESIGN.md.

#include <cstdio>
#include <string>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

constexpr double kTimeScale = 0.1;
constexpr int kTau = 110;  // the paper's calibrated saturation concurrency

void Run(const BenchArgs& args) {
  std::vector<std::string> modes =
      args.full ? std::vector<std::string>{"RO", "RW", "WO"}
                : std::vector<std::string>{"RW"};
  std::vector<sut::SutKind> suts = sut::AllSuts();
  std::vector<ElasticityPattern> patterns = AllElasticityPatterns();

  // Matrix order: mode (outer) -> SUT -> pattern (inner), the printed
  // nesting; the pattern is named in the id.
  std::vector<runner::CellSpec> cells;
  for (const std::string& mode : modes) {
    for (sut::SutKind kind : suts) {
      for (ElasticityPattern pattern : patterns) {
        runner::CellSpec spec;
        spec.sut = kind;
        spec.concurrency = kTau;
        spec.pattern = mode;
        spec.seed = args.seed;
        // Serverless SUTs run with autoscaling enabled; fixed SUTs (RDS,
        // CDB4) keep their provisioned size — exactly the contrast the
        // paper evaluates.
        spec.serverless = true;
        spec.freeze_at_max = false;
        spec.time_scale = kTimeScale;
        spec.id = runner::DefaultCellId(spec) + "/" +
                  ElasticityPatternName(pattern);
        cells.push_back(spec);
      }
    }
  }
  std::vector<runner::CellResult> results = runner::MatrixRunner(args.runner)
      .Run(cells, [&patterns](const runner::CellContext& ctx) {
        return runner::RunElasticityCell(
            ctx, runner::SalesConfigFor(ctx.spec),
            ElasticitySchedule(patterns[ctx.index % patterns.size()], kTau),
            sim::Seconds(60 * kTimeScale));
      });

  std::printf(
      "=== Figure 6: elasticity — TPS, total cost, E1-Score "
      "(SF1, tau=%d, slot=%.0fs, time-scale %.1f) ===\n",
      kTau, 60 * kTimeScale, kTimeScale);
  size_t idx = 0;
  for (const std::string& mode : modes) {
    util::TablePrinter table({"System", "Pattern", "Schedule", "TPS",
                              "TotalCost", "ScaledCost", "E1-Score"});
    for (sut::SutKind kind : suts) {
      for (ElasticityPattern pattern : patterns) {
        const runner::CellResult& r = results[idx++];
        table.AddRow({sut::SutName(kind), ElasticityPatternName(pattern),
                      r.ok ? r.Text("schedule") : "ERR", r.Text("tps"),
                      "$" + r.Text("total_cost"), "$" + r.Text("scaled_cost"),
                      r.Text("e1_score")});
      }
      table.AddSeparator();
    }
    table.Print("\n--- mode " + mode + " ---");
  }
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

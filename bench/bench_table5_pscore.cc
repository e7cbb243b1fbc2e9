// Reproduces Table V: P-Score of the five cloud databases with the detailed
// resource-cost breakdown (CPU / memory / storage / IOPS / network per
// minute under the resource-unit-cost model of Table III).
//
// Paper shapes: AWS RDS has the best P-Score (high TPS at the lowest cost);
// CDB4 delivers the top TPS but pays the 3x RDMA network premium; CDB2's
// IOPS bill dwarfs everyone's (~327x RDS); CDB1's six-way replication
// doubles its storage cost; CDB2 has the lowest P-Score.

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

void Run(const BenchArgs& args) {
  // SF1: the regime where RDS's local storage pays off across all three
  // patterns, which is the paper's headline for this table. (The paper's
  // storage-GB column corresponds to SF100; scale factors only change the
  // storage line of the cost breakdown, and the billing-factor ratios —
  // 2-way RDS vs 6-way CDB1 vs 3-way others — are visible at any SF.)
  int64_t sf = 1;
  int concurrency = 150;
  std::vector<std::string> modes = {"RO", "RW", "WO"};
  std::vector<sut::SutKind> suts = sut::AllSuts();

  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    for (const std::string& mode : modes) {
      runner::CellSpec spec;
      spec.sut = kind;
      spec.scale_factor = sf;
      // Table V's resource columns list a single 4-vCore instance, so the
      // P-Score deployment bills one node (reads served locally).
      spec.n_ro = 0;
      spec.concurrency = concurrency;
      spec.pattern = mode;
      spec.seed = args.seed;
      spec.warmup = sim::Seconds(1);
      spec.measure = args.full ? sim::Seconds(4) : sim::Seconds(2);
      cells.push_back(spec);
    }
  }

  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(cells, runner::RunOltpCell);

  std::printf(
      "=== Table V: P-Score with detailed resource cost (SF%lld, con=%d) "
      "===\n\n",
      static_cast<long long>(sf), concurrency);
  util::TablePrinter table({"System", "vCores", "Mem/GB", "Sto/GB", "IOPS",
                            "Net/Gbps", "$/min", "P(RO)", "P(RW)", "P(WO)",
                            "P(AVG)"});
  for (size_t s = 0; s < suts.size(); ++s) {
    // Resource/cost columns come from the last mode's cell, as before (the
    // allocation is mode-independent; only the P-Scores differ).
    const runner::CellResult& last = results[s * modes.size() + 2];
    double p_sum = 0;
    std::vector<std::string> p_cols;
    for (size_t m = 0; m < modes.size(); ++m) {
      const runner::CellResult& r = results[s * modes.size() + m];
      p_sum += r.Number("p_score");
      p_cols.push_back(r.ok ? r.Text("p_score") : "ERR");
    }
    table.AddRow({sut::SutName(suts[s]), last.Text("vcores"),
                  last.Text("memory_gb"), last.Text("storage_gb"),
                  last.Text("iops"), last.Text("net_gbps"),
                  "$" + last.Text("cost_per_min"), p_cols[0], p_cols[1],
                  p_cols[2], F0(p_sum / static_cast<double>(modes.size()))});
  }
  table.Print();
  std::printf(
      "\nNote: per-minute component costs follow Table III unit prices; the\n"
      "paper's printed per-row totals exceed the sum of its own component\n"
      "columns, so totals here are the self-consistent sums.\n");
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

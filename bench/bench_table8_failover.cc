// Reproduces Table VIII: F-Score (failure -> service resumed) and R-Score
// (service resumed -> TPS back at target) for RW-node and RO-node restarts
// under a constant read-write workload at concurrency 150.
//
// Paper shapes: total recovery time ranks AWS RDS (~78 s, ARIES redo+undo
// over dirty pages) > CDB2 (~66 s, extra log/page tiers) > CDB3 (~54 s) >
// CDB1 (~30 s, redo pushed to storage) > CDB4 (~12 s, RO promotion with a
// warm remote buffer pool).

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

void Run(const BenchArgs& args) {
  std::vector<sut::SutKind> suts = sut::AllSuts();
  // Matrix order: SUT (outer) -> RW failure, RO failure (inner).
  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    for (const char* node : {"RW", "RO"}) {
      runner::CellSpec spec;
      spec.sut = kind;
      spec.n_ro = 1;
      spec.concurrency = 150;
      spec.pattern = node;
      spec.seed = args.seed;
      spec.warmup = sim::Seconds(5);
      spec.measure = sim::Seconds(90);  // longest observation after failure
      cells.push_back(spec);
    }
  }
  // RO clients stay pinned to the failing replica. Recovery target: 90% of
  // each SUT's own pre-failure TPS (the paper's one absolute target would
  // leave the slowest SUT unable to recover at all; see EXPERIMENTS.md).
  std::vector<runner::CellResult> results = runner::MatrixRunner(args.runner)
      .Run(cells, [](const runner::CellContext& ctx) {
        return runner::RunFailoverCell(ctx, runner::SalesConfigFor(ctx.spec),
                                       /*sticky_ro=*/true, /*target_tps=*/-1);
      });

  std::printf(
      "=== Table VIII: fail-over — F-Score and R-Score (seconds), con=150 "
      "read-write ===\n\n");
  util::TablePrinter table({"System", "F(RW)", "F(RO)", "F(AVG)", "R(RW)",
                            "R(RO)", "R(AVG)", "Total(s)"});
  for (size_t s = 0; s < suts.size(); ++s) {
    const runner::CellResult& rw = results[2 * s];
    const runner::CellResult& ro = results[2 * s + 1];
    double f[2] = {rw.Number("f_s"), ro.Number("f_s")};
    double r[2] = {rw.Number("r_s"), ro.Number("r_s")};
    table.AddRow({sut::SutName(suts[s]), F1(f[0]), F1(f[1]),
                  F1((f[0] + f[1]) / 2), F1(r[0]), F1(r[1]),
                  F1((r[0] + r[1]) / 2), F1(f[0] + f[1] + r[0] + r[1])});
  }
  table.Print();
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

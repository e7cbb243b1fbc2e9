// Demo / smoke driver for the experiment-matrix runner: a full SUT x SF
// sweep of the standard OLTP throughput cell, printed as one table.
//
// This is the binary scripts/check.sh uses to prove the runner's core
// contract end to end: stdout is byte-identical at --jobs=1 and --jobs=N
// for the same matrix and seed, and for every per-cell artifact.

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

void Run(const BenchArgs& args) {
  std::vector<int64_t> sfs = args.full ? std::vector<int64_t>{1, 10, 100}
                                       : std::vector<int64_t>{1, 10};
  std::vector<std::string> modes =
      args.full ? std::vector<std::string>{"RO", "RW", "WO"}
                : std::vector<std::string>{"RW"};
  std::vector<sut::SutKind> suts = sut::AllSuts();

  std::vector<runner::CellSpec> cells;
  for (int64_t sf : sfs) {
    for (const std::string& mode : modes) {
      for (sut::SutKind kind : suts) {
        runner::CellSpec spec;
        spec.sut = kind;
        spec.scale_factor = sf;
        spec.n_ro = 1;
        spec.concurrency = 100;
        spec.pattern = mode;
        spec.seed = args.seed;
        spec.warmup = sim::Seconds(1);
        spec.measure = sim::Seconds(2);
        cells.push_back(spec);
      }
    }
  }

  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(cells, runner::RunOltpCell);

  std::printf("=== Matrix-runner demo: OLTP cells (1 RW + 1 RO node) ===\n\n");
  util::TablePrinter table({"Cell", "TPS", "p50/ms", "p99/ms", "$/min",
                            "P-Score", "Hit%", "sim s"});
  for (const runner::CellResult& r : results) {
    if (!r.ok) {
      table.AddRow({r.id, "ERR", "-", "-", "-", "-", "-", "-"});
      continue;
    }
    table.AddRow({r.id, r.Text("tps"), r.Text("p50_ms"), r.Text("p99_ms"),
                  "$" + r.Text("cost_per_min"), r.Text("p_score"),
                  r.Text("buffer_hit_pct"), F1(r.sim_seconds)});
  }
  table.Print();
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

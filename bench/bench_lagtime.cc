// Reproduces the §III-F replication-lag evaluation: average lag time between
// the RW node and the RO replica for the four insert/update/delete mixes
// (I,U,D) in {(60,30,10), (100,0,0), (0,100,0), (0,0,100)}.
//
// Paper shapes: CDB4 ~1.5 ms (RDMA cache invalidation) << CDB3 ~14 ms
// (parallel replay) < AWS RDS (coupled streaming) << CDB1 ~177 ms
// (sequential replay) << CDB2 ~1082 ms (separate log and page services);
// delete-heavy mixes lag least (logical deletion is cheap to apply).

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

struct Mix {
  const char* name;
  int i, u, d;
};

void Run(const BenchArgs& args) {
  std::vector<Mix> mixes = {{"I60/U30/D10", 60, 30, 10},
                            {"I100", 100, 0, 0},
                            {"U100", 0, 100, 0},
                            {"D100", 0, 0, 100}};
  std::vector<sut::SutKind> suts = sut::AllSuts();

  // Matrix order: SUT (outer) -> mix (inner).
  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    for (const Mix& mix : mixes) {
      runner::CellSpec spec;
      spec.sut = kind;
      spec.n_ro = 1;
      spec.concurrency = 20;
      spec.pattern = mix.name;
      spec.seed = args.seed;
      spec.warmup = sim::Seconds(2);
      spec.measure = args.full ? sim::Seconds(8) : sim::Seconds(5);
      cells.push_back(spec);
    }
  }
  std::vector<runner::CellResult> results = runner::MatrixRunner(args.runner)
      .Run(cells, [&mixes](const runner::CellContext& ctx) {
        const Mix& mix = mixes[ctx.index % mixes.size()];
        return runner::RunLagCell(ctx, mix.i, mix.u, mix.d);
      });

  std::printf("=== Lag time between RW and RO (ms), by IUD mix ===\n\n");
  util::TablePrinter table({"System", "Mix", "InsertLag", "UpdateLag",
                            "DeleteLag", "C-Score"});
  size_t idx = 0;
  for (sut::SutKind kind : suts) {
    for (const Mix& mix : mixes) {
      const runner::CellResult& r = results[idx++];
      table.AddRow({sut::SutName(kind), mix.name,
                    r.ok ? r.Text("insert_lag_ms") : "ERR",
                    r.Text("update_lag_ms"), r.Text("delete_lag_ms"),
                    r.Text("c_score")});
    }
    table.AddSeparator();
  }
  table.Print();
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

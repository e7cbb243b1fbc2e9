// Reproduces Figure 5: transaction-processing throughput of the five cloud
// databases across scale factors (SF1/SF10/SF100), workload patterns
// (read-only / read-write / write-only) and concurrency levels.
//
// Paper shapes to hold: CDB4 highest overall (~3x CDB2); CDB2's TPS caps as
// concurrency grows (44 MB buffer); CDB3 beats CDB1/CDB2 (local file cache
// + parallel replay); AWS RDS leads RW at SF1/low concurrency but falls
// behind as data and concurrency grow (dirty-page flushing).

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

void Run(const BenchArgs& args) {
  std::vector<int64_t> sfs = args.full ? std::vector<int64_t>{1, 10, 100}
                                       : std::vector<int64_t>{1, 100};
  std::vector<int> cons = args.full ? std::vector<int>{50, 100, 150, 200}
                                    : std::vector<int>{50, 100, 200};
  std::vector<std::string> modes = {"RO", "RW", "WO"};
  std::vector<sut::SutKind> suts = sut::AllSuts();

  // Matrix order: sf (outer) -> sut -> mode -> con (inner), mirroring the
  // printed table nesting; the index arithmetic below relies on it.
  std::vector<runner::CellSpec> cells;
  for (int64_t sf : sfs) {
    for (sut::SutKind kind : suts) {
      for (const std::string& mode : modes) {
        for (int con : cons) {
          runner::CellSpec spec;
          spec.sut = kind;
          spec.scale_factor = sf;
          spec.n_ro = 1;
          spec.concurrency = con;
          spec.pattern = mode;
          spec.seed = args.seed;
          spec.warmup = sim::Seconds(1);
          spec.measure = args.full ? sim::Seconds(3) : sim::Seconds(2);
          cells.push_back(spec);
        }
      }
    }
  }

  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(cells, runner::RunOltpCell);

  std::printf("=== Figure 5: OLTP throughput (TPS), 1 RW + 1 RO node ===\n");
  size_t idx = 0;
  for (int64_t sf : sfs) {
    util::TablePrinter table([&] {
      std::vector<std::string> headers{"System", "Mode"};
      for (int con : cons) headers.push_back("con=" + std::to_string(con));
      return headers;
    }());
    for (sut::SutKind kind : suts) {
      for (const std::string& mode : modes) {
        std::vector<std::string> row{sut::SutName(kind), mode};
        for (size_t c = 0; c < cons.size(); ++c) {
          const runner::CellResult& r = results[idx++];
          row.push_back(r.ok ? r.Text("tps") : "ERR");
        }
        table.AddRow(row);
      }
      table.AddSeparator();
    }
    table.Print("\n--- SF" + std::to_string(sf) + " ---");
  }
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

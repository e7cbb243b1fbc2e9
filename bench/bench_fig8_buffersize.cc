// Reproduces Figure 8: the impact of buffer size — TPS, cost and P-Score of
// AWS RDS, CDB1 and CDB4 as the local buffer grows from 128 MB to 10 GB.
// CDB2/CDB3 are excluded exactly as in the paper (their buffer is not
// user-tunable). The paper runs RW at SF1; our compact row layout makes
// SF1's read working set fit any buffer, so the sweep runs at SF10 where
// the buffer/working-set ratio spans the same range as the paper's setup
// (deviation documented in EXPERIMENTS.md).
//
// Paper shapes: at 10 GB CDB1's TPS overtakes CDB4's at ~2/3 of its cost
// (~1.8x P-Score); AWS RDS keeps a modest average-TPS and cost edge over
// CDB1.

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

runner::CellResult RunBufferCell(const runner::CellContext& ctx,
                                 int64_t buffer_mb) {
  const runner::CellSpec& spec = ctx.spec;
  SalesTransactionSet txns(runner::SalesConfigFor(spec));
  runner::CellDeployment rig(spec, txns.Schemas());
  // The sweep's experimental knob: resize the node buffer, and grow billed
  // memory to hold it (memory >= buffer + baseline).
  rig.cluster->rw()->SetBufferBytes(buffer_mb << 20);
  rig.cluster->PrewarmBuffers();
  OltpEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.measure = spec.measure;
  OltpResult r =
      OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);
  runner::CellResult result;
  result.AddMetric("tps", r.mean_tps, 0);
  result.AddMetric("cost_per_min", r.cost_per_minute.total(), 4);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

void Run(const BenchArgs& args) {
  std::vector<int64_t> buffer_mb =
      args.full ? std::vector<int64_t>{128, 1024, 4096, 10240}
                : std::vector<int64_t>{128, 2048, 10240};
  std::vector<int> cons = {50, 100, 150, 200};
  std::vector<sut::SutKind> suts = {sut::SutKind::kAwsRds,
                                    sut::SutKind::kCdb1,
                                    sut::SutKind::kCdb4};

  // Matrix order: buffer (outer) -> SUT -> concurrency (inner); the buffer
  // size is named in the id.
  std::vector<runner::CellSpec> cells;
  for (int64_t mb : buffer_mb) {
    for (sut::SutKind kind : suts) {
      for (int con : cons) {
        runner::CellSpec spec;
        spec.sut = kind;
        spec.scale_factor = 10;
        spec.concurrency = con;
        spec.seed = args.seed;
        spec.id = runner::DefaultCellId(spec) + "/buf" + std::to_string(mb) +
                  "MB";
        cells.push_back(spec);
      }
    }
  }
  std::vector<runner::CellResult> results = runner::MatrixRunner(args.runner)
      .Run(cells, [&](const runner::CellContext& ctx) {
        return RunBufferCell(
            ctx, buffer_mb[ctx.index / (suts.size() * cons.size())]);
      });

  std::printf(
      "=== Figure 8: varying the buffer size (RW, SF10) — TPS / $/min / "
      "P-Score ===\n");
  size_t idx = 0;
  for (int64_t mb : buffer_mb) {
    util::TablePrinter table({"System", "Buffer", "TPS(con50)", "TPS(con100)",
                              "TPS(con150)", "TPS(con200)", "AvgTPS", "$/min",
                              "P-Score"});
    for (sut::SutKind kind : suts) {
      std::vector<std::string> row{sut::SutName(kind),
                                   util::FormatBytes(mb << 20)};
      double avg = 0, cost = 0;
      for (size_t c = 0; c < cons.size(); ++c) {
        const runner::CellResult& r = results[idx++];
        row.push_back(r.ok ? r.Text("tps") : "ERR");
        avg += r.Number("tps");
        cost = r.Number("cost_per_min");
      }
      avg /= static_cast<double>(cons.size());
      row.push_back(F0(avg));
      row.push_back("$" + util::FormatDouble(cost, 4));
      row.push_back(F0(avg / cost));
      table.AddRow(row);
    }
    table.Print("\n--- buffer " + util::FormatBytes(mb << 20) + " ---");
  }
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

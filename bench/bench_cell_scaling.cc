// Multi-core tenant-sharded cell scaling ladder (DESIGN.md §4k).
//
// One large multi-tenant OLTP cell is executed at a ladder of
// --cell-shards values (default 1/2/4/8, capped at the tenant count); each
// step must produce the byte-identical merged result row, and the bench
// CB_CHECKs that before printing anything. The deterministic merged table
// goes to stdout; wall times and the speedup ladder go to stderr, so
// stdout can be byte-diffed across shard counts and --jobs by
// scripts/check.sh.
//
//   --cell-shards=N  run the single shard count N instead of the ladder
//                    (stdout stays the same bytes as any other N)
//   --tenants=N      tenant count of the big cell (default 8)
//   --smoke          tiny windows + 4 tenants + ladder {1,2} for CI
//   --jsonl=PATH     merged result row via the runner's JSONL artifact

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

struct ScalingConfig {
  int tenants = 8;
  std::vector<int> ladder;  ///< shard counts to run, in order
  runner::CellSpec cell;
};

runner::CellSpec MakeCell(const BenchArgs& args, bool smoke, int tenants) {
  runner::CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.scale_factor = args.full ? 10 : 1;
  spec.n_ro = 0;
  spec.concurrency = args.full ? 100 : 20;  // per tenant
  spec.pattern = "RW";
  spec.seed = args.seed;
  spec.warmup = smoke ? sim::Millis(500) : sim::Seconds(1);
  spec.measure = smoke ? sim::Seconds(1) : sim::Seconds(2);
  spec.tenants = tenants;
  return spec;
}

/// Runs the cell at one shard count through the MatrixRunner (the
/// production path: worker isolation, artifact plumbing, JSONL). Returns
/// the merged row.
runner::CellResult RunAt(const ScalingConfig& cfg, const BenchArgs& args,
                         int shards, bool write_jsonl) {
  runner::CellSpec spec = cfg.cell;
  spec.cell_shards = shards;
  runner::RunnerOptions options = args.runner;
  options.print_summary = false;
  if (!write_jsonl) options.jsonl_path.clear();
  std::vector<runner::CellResult> results =
      runner::MatrixRunner(options).Run({spec}, runner::RunOltpCell);
  CB_CHECK_EQ(results.size(), 1u);
  return results[0];
}

void PrintMergedTable(const runner::CellResult& r, int tenants) {
  std::printf("=== Tenant-sharded cell: merged result ===\n\n");
  util::TablePrinter table({"Cell", "TPS", "p50/ms", "p99/ms", "$/min",
                            "P-Score", "Hit%", "sim s"});
  if (!r.ok) {
    table.AddRow({r.id, "ERR: " + r.error, "-", "-", "-", "-", "-", "-"});
  } else {
    table.AddRow({r.id, r.Text("tps"), r.Text("p50_ms"), r.Text("p99_ms"),
                  "$" + r.Text("cost_per_min"), r.Text("p_score"),
                  r.Text("buffer_hit_pct"), F1(r.sim_seconds)});
  }
  table.Print();

  std::printf("\nPer-tenant throughput:\n");
  util::TablePrinter per_tenant({"Tenant", "TPS"});
  for (int i = 0; i < tenants; ++i) {
    std::string key = "t" + std::to_string(i) + "_tps";
    per_tenant.AddRow({"t" + std::to_string(i), r.Text(key, "-")});
  }
  per_tenant.Print();
}

void Run(const ScalingConfig& cfg, const BenchArgs& args) {
  // The ladder's first step is the reference: every later step must merge
  // to the byte-identical row — that equality IS the bench's correctness
  // claim, so it is CB_CHECKed, not just reported.
  std::string reference;
  runner::CellResult first;
  std::vector<double> walls;
  for (size_t step = 0; step < cfg.ladder.size(); ++step) {
    int shards = cfg.ladder[step];
    runner::CellResult r = RunAt(cfg, args, shards,
                                 /*write_jsonl=*/step == 0);
    std::string row = runner::ToJsonLine(r);
    if (step == 0) {
      reference = row;
      first = r;
    } else {
      CB_CHECK(row == reference)
          << "merged row diverged at --cell-shards=" << shards;
    }
    walls.push_back(r.wall_ms);
    std::fprintf(stderr,
                 "[cell-scaling] tenants=%d shards=%d wall=%.2fs "
                 "speedup=%.2fx\n",
                 cfg.tenants, shards, r.wall_ms / 1e3,
                 walls[0] / std::max(r.wall_ms, 1e-9));
  }
  PrintMergedTable(first, cfg.tenants);
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  using namespace cloudybench;
  std::string shards_flag, tenants_flag, smoke_flag;
  bench::BenchArgs args = bench::BenchArgs::Parse(
      argc, argv,
      {{"--cell-shards=", &shards_flag,
        "run one shard count instead of the 1/2/4/8 ladder"},
       {"--tenants=", &tenants_flag, "tenants in the big cell (default 8)"},
       {"--smoke", &smoke_flag, "tiny CI run: 4 tenants, ladder {1,2}"}});

  bench::ScalingConfig cfg;
  bool smoke = !smoke_flag.empty();
  cfg.tenants = smoke ? 4 : 8;
  if (!tenants_flag.empty()) {
    int64_t v = 0;
    CB_CHECK(util::ParseInt64(tenants_flag, &v) && v >= 1 && v <= 256)
        << "bad --tenants (want 1..256)";
    cfg.tenants = static_cast<int>(v);
  }
  if (!shards_flag.empty()) {
    int64_t v = 0;
    CB_CHECK(util::ParseInt64(shards_flag, &v) && v >= 0 && v <= 4096)
        << "bad --cell-shards (want 0..4096; 0 = all hardware threads)";
    cfg.ladder = {static_cast<int>(v)};
  } else {
    for (int shards : smoke ? std::vector<int>{1, 2}
                            : std::vector<int>{1, 2, 4, 8}) {
      if (shards <= cfg.tenants) cfg.ladder.push_back(shards);
    }
  }
  cfg.cell = bench::MakeCell(args, smoke, cfg.tenants);
  bench::Run(cfg, args);
  return 0;
}

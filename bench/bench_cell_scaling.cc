// Multi-tenant cell scaling ladder (DESIGN.md §4k).
//
// One large multi-tenant OLTP row — every tenant an ordinary runner cell
// (runner::TenantSpec), the row a pure fold of theirs
// (runner::MergeTenantRows) — is executed at a ladder of --jobs values
// (default 1/2/4/8, capped at the tenant count); each step must merge to
// the byte-identical row, and the bench CB_CHECKs that before printing
// anything. The merged table goes to stdout; wall times and the speedup
// ladder go to stderr, so stdout can be byte-diffed across --jobs by
// scripts/check.sh.
//
//   --jobs=N     run the single step N instead of the ladder
//                (stdout stays the same bytes as any other N)
//   --tenants=N  tenant count of the big row (default 8)
//   --smoke      tiny windows + 4 tenants + ladder {1,2} for CI
//   --jsonl=PATH the tenant rows via the runner's JSONL artifact

#include <chrono>
#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

struct ScalingConfig {
  int tenants = 8;
  std::vector<int> ladder;  ///< --jobs values to run, in order
  runner::CellSpec cell;
  std::vector<runner::CellSpec> tenant_cells;
};

runner::CellSpec MakeCell(const BenchArgs& args, bool smoke) {
  runner::CellSpec spec;
  spec.sut = sut::SutKind::kCdb3;
  spec.scale_factor = args.full ? 10 : 1;
  spec.n_ro = 0;
  spec.concurrency = args.full ? 100 : 20;  // per tenant
  spec.pattern = "RW";
  spec.seed = args.seed;
  spec.warmup = smoke ? sim::Millis(500) : sim::Seconds(1);
  spec.measure = smoke ? sim::Seconds(1) : sim::Seconds(2);
  return spec;
}

/// Runs the tenant cells on one MatrixRunner at `jobs` workers (the
/// production path: worker isolation, artifact plumbing, JSONL) and
/// returns the merged row, its wall_ms set to the whole step's wall time.
runner::CellResult RunAt(const ScalingConfig& cfg, const BenchArgs& args,
                         int jobs, bool write_jsonl) {
  runner::RunnerOptions options = args.runner;
  options.jobs = jobs;
  options.print_summary = false;
  if (!write_jsonl) options.jsonl_path.clear();
  auto wall0 = std::chrono::steady_clock::now();
  runner::CellResult merged = runner::MergeTenantRows(
      cfg.cell, runner::MatrixRunner(options).Run(cfg.tenant_cells,
                                                  runner::RunOltpCell));
  merged.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - wall0)
                       .count();
  return merged;
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
    int jobs = cfg.ladder[step];
    runner::CellResult r = RunAt(cfg, args, jobs, /*write_jsonl=*/step == 0);
    std::string row = runner::ToJsonLine(r);
    if (step == 0) {
      reference = row;
      first = r;
    } else {
      CB_CHECK(row == reference)
          << "merged row diverged at --jobs=" << jobs;
    }
    walls.push_back(r.wall_ms);
    std::fprintf(stderr,
                 "[cell-scaling] tenants=%d jobs=%d wall=%.2fs "
                 "speedup=%.2fx\n",
                 cfg.tenants, jobs, r.wall_ms / 1e3,
                 walls[0] / std::max(r.wall_ms, 1e-9));
  }
  PrintMergedTable(first, cfg.tenants);
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  using namespace cloudybench;
  std::string tenants_flag, smoke_flag;
  bench::BenchArgs args = bench::BenchArgs::Parse(
      argc, argv,
      {{"--tenants=", &tenants_flag, "tenants in the big row (default 8)"},
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
  if (args.runner.jobs > 0) {
    cfg.ladder = {args.runner.jobs};
  } else {
    for (int jobs : smoke ? std::vector<int>{1, 2}
                          : std::vector<int>{1, 2, 4, 8}) {
      if (jobs <= cfg.tenants) cfg.ladder.push_back(jobs);
    }
  }
  cfg.cell = bench::MakeCell(args, smoke);
  for (int i = 0; i < cfg.tenants; ++i) {
    cfg.tenant_cells.push_back(runner::TenantSpec(cfg.cell, i));
  }
  bench::Run(cfg, args);
  return 0;
}

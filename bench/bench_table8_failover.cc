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

runner::CellResult RunFailoverCell(const runner::CellContext& ctx) {
  const runner::CellSpec& spec = ctx.spec;
  // The pattern names the failed node and its workload mode. RW failure:
  // the full read-write stream runs on the RW node so the outage is fully
  // visible. RO failure: a read-only stream pinned to the failing replica
  // (clients hold connections to that endpoint).
  bool fail_rw = spec.pattern == "RW";
  SalesWorkloadConfig cfg = runner::SalesConfigFor(spec);
  cfg.route_reads_to_replicas = !fail_rw;
  cfg.sticky_replica = !fail_rw;
  SalesTransactionSet txns(cfg);
  runner::CellDeployment rig(spec, txns.Schemas());
  FailoverEvaluator::Options options;
  options.concurrency = spec.concurrency;
  options.warmup = spec.warmup;
  options.fail_rw = fail_rw;
  // Recovery target: 90% of this SUT's own pre-failure TPS. (The paper
  // sets one absolute target for all SUTs; with heterogeneous capacities a
  // shared absolute target would leave the slowest SUT unable to recover
  // at all, so we use a per-SUT 90% target — documented in EXPERIMENTS.md.)
  options.target_tps = -1;
  options.max_observation = spec.measure;
  FailoverResult r =
      FailoverEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);

  runner::CellResult result;
  result.AddMetric("f_s", r.service_lost ? r.f_seconds : 0.0, 1);
  result.AddMetric("r_s", r.service_lost ? r.r_seconds : 0.0, 1);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

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
  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(cells, RunFailoverCell);

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

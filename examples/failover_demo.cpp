// Fail-over demo: inject a read-write-node restart into two architectures
// with opposite recovery designs — AWS RDS (ARIES restart in place: redo
// dirty pages, undo in-flight transactions) and CDB4 (promote the RO over
// the warm remote buffer pool) — and print the observed F/R phases.

#include <cstdio>

#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "runner/oltp_cell.h"
#include "sut/profiles.h"

using namespace cloudybench;

namespace {

void RunOne(sut::SutKind kind) {
  runner::CellSpec spec;
  spec.sut = kind;
  spec.n_ro = 1;
  SalesWorkloadConfig workload_cfg = SalesWorkloadConfig::ReadWrite();
  workload_cfg.route_reads_to_replicas = false;
  SalesTransactionSet workload(workload_cfg);
  runner::CellDeployment rig(spec, workload.Schemas());

  FailoverEvaluator::Options options;
  options.concurrency = 150;
  options.warmup = sim::Seconds(5);
  options.fail_rw = true;
  options.target_tps = 3000;
  options.max_observation = sim::Seconds(90);
  FailoverResult result =
      FailoverEvaluator::Run(&rig.env, rig.cluster.get(), &workload, options);

  std::printf("%s\n", sut::SutName(kind));
  std::printf("  pre-failure TPS     %8.0f\n", result.pre_failure_tps);
  std::printf("  service outage (F)  %8.1f s  (failure -> first commit)\n",
              result.f_seconds);
  std::printf("  TPS recovery  (R)   %8.1f s  (service -> %0.0f TPS)\n",
              result.r_seconds, result.target_tps);
  std::printf("  recovery mechanism  %s\n\n",
              rig.cluster->config().recovery.promote_ro
                  ? "promote RO -> RW (remote buffer stays warm)"
                  : "restart in place (redo + undo, cold buffer)");
}

}  // namespace

int main() {
  util::SetLogLevel(util::LogLevel::kWarning);
  std::printf("Fail-over demo: restart-model injection on the RW node\n\n");
  RunOne(sut::SutKind::kAwsRds);
  RunOne(sut::SutKind::kCdb4);
  return 0;
}

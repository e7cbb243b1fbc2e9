// Architecture lab: build a *custom* cloud-native database from parts —
// no predefined SUT profile — and compare two hypothetical designs the
// paper's takeaways suggest:
//
//   design A  "CDB1 with on-demand scale-down" — the paper's takeaway (2):
//             "If scaling down of CDB1 is improved with on-demand scaling,
//             it would be the clear winner."
//   design B  "CDB4 with autoscaling" — takeaway (2) again: "implementing
//             auto-scaling in CDB4 has a large potential to achieve the
//             best elasticity because of its memory disaggregation."
//
// Both are one ClusterConfig away; this is the "new SUT" extension path
// from README.md.

#include <cstdio>

#include "core/evaluators.h"
#include "core/patterns.h"
#include "core/sales_workload.h"
#include "runner/oltp_cell.h"
#include "sut/profiles.h"

using namespace cloudybench;

namespace {

constexpr double kTimeScale = 0.1;

cloud::ClusterConfig DesignA() {
  // Start from CDB1 (storage disaggregation, redo pushdown, fast scale-up)
  // and replace its gradual-down policy with CDB2-style on-demand scaling;
  // drop the connection-dropping resize while we're at it.
  cloud::ClusterConfig cfg = sut::MakeProfile(sut::SutKind::kCdb1, kTimeScale);
  cfg.name = "CDB1+on-demand-down";
  cfg.autoscaler.policy = cloud::ScalingPolicy::kOnDemand;
  cfg.autoscaler.control_interval = sim::Seconds(15 * kTimeScale);
  cfg.autoscaler.down_threshold = 0.65;
  cfg.node.scaling_stall = sim::Seconds(0);
  cfg.node.memory_follows_vcores = true;
  cfg.node.vcores = cfg.autoscaler.min_vcores;
  return cfg;
}

cloud::ClusterConfig DesignB() {
  // Start from CDB4 (memory disaggregation) and give it a CU autoscaler
  // with pause/resume. The remote buffer pool keeps pages warm across
  // scaling, so aggressive downscaling should be nearly free.
  cloud::ClusterConfig cfg = sut::MakeProfile(sut::SutKind::kCdb4, kTimeScale);
  cfg.name = "CDB4+autoscaling";
  cfg.autoscaler.policy = cloud::ScalingPolicy::kCuPauseResume;
  cfg.autoscaler.min_vcores = 0.5;
  cfg.autoscaler.max_vcores = 4;
  cfg.autoscaler.quantum_vcores = 0.5;
  cfg.autoscaler.control_interval = sim::Seconds(20 * kTimeScale);
  cfg.autoscaler.down_threshold = 0.5;
  cfg.autoscaler.scale_to_zero = true;
  cfg.autoscaler.pause_after_idle = sim::Seconds(30 * kTimeScale);
  cfg.autoscaler.resume_delay = sim::Millis(400 * kTimeScale * 10);
  cfg.node.memory_follows_vcores = true;
  // Local buffer shrinks with memory, but misses land in the warm remote
  // pool — the architectural reason design B should keep its throughput.
  cfg.node.buffer_fraction_of_memory = 0.5;
  cfg.node.vcores = cfg.autoscaler.min_vcores;
  return cfg;
}

void Evaluate(const cloud::ClusterConfig& base_cfg) {
  std::printf("%s (%s)\n", base_cfg.name.c_str(),
              cloud::ScalingPolicyName(base_cfg.autoscaler.policy));
  for (ElasticityPattern pattern :
       {ElasticityPattern::kLargeSpike, ElasticityPattern::kZeroValley}) {
    SalesTransactionSet txns(SalesWorkloadConfig::ReadWrite());
    // SF1, no RO replica, exactly base_cfg.
    runner::CellDeployment rig(runner::CellSpec{}, base_cfg, txns.Schemas());
    ElasticityEvaluator::Options options;
    options.tau = 110;
    options.slot = sim::Seconds(60 * kTimeScale);
    ElasticityResult r =
        ElasticityEvaluator::Run(&rig.env, rig.cluster.get(), &txns, pattern,
                                 options);
    double scaled_cost =
        r.total_cost.cpu + r.total_cost.memory + r.total_cost.iops;
    std::printf("  %-14s TPS %6.0f   scaled-cost $%.4f   E1-Score %8.0f\n",
                ElasticityPatternName(pattern), r.mean_tps, scaled_cost,
                r.e1_score);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  util::SetLogLevel(util::LogLevel::kWarning);
  std::printf(
      "Architecture lab: \"what-if\" designs from the paper's takeaways\n\n");
  // Baselines as shipped:
  cloud::ClusterConfig cdb1 = sut::MakeProfile(sut::SutKind::kCdb1, kTimeScale);
  cdb1.node.memory_follows_vcores = true;
  cdb1.node.vcores = cdb1.autoscaler.min_vcores;
  Evaluate(cdb1);
  Evaluate(DesignA());
  cloud::ClusterConfig cdb4 = sut::MakeProfile(sut::SutKind::kCdb4, kTimeScale);
  Evaluate(cdb4);
  Evaluate(DesignB());
  std::printf(
      "Expected: design A beats stock CDB1's E1 (no gradual-down bleed, no\n"
      "resize stalls); design B beats stock CDB4's E1 (it stops paying for\n"
      "4 fixed vCores) while the remote buffer keeps its TPS healthy.\n");
  return 0;
}

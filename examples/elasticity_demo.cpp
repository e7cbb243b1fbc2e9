// Elasticity demo: drive a serverless SUT through one of CloudyBench's
// elastic patterns and watch the autoscaler follow the peaks and valleys —
// a per-slot timeline of offered concurrency, achieved TPS and allocated
// vCores, plus the pattern's E1-Score.
//
//   $ ./examples/elasticity_demo [pattern]
//     pattern  peak | spike | valley | zero   (default spike)

#include <cstdio>
#include <string>

#include "core/evaluators.h"
#include "core/patterns.h"
#include "core/sales_workload.h"
#include "runner/oltp_cell.h"
#include "sut/profiles.h"

using namespace cloudybench;

int main(int argc, char** argv) {
  util::SetLogLevel(util::LogLevel::kWarning);
  ElasticityPattern pattern = ElasticityPattern::kLargeSpike;
  if (argc > 1) {
    std::string name = argv[1];
    if (name == "peak") pattern = ElasticityPattern::kSinglePeak;
    else if (name == "spike") pattern = ElasticityPattern::kLargeSpike;
    else if (name == "valley") pattern = ElasticityPattern::kSingleValley;
    else if (name == "zero") pattern = ElasticityPattern::kZeroValley;
    else {
      std::fprintf(stderr, "unknown pattern '%s' (peak|spike|valley|zero)\n",
                   name.c_str());
      return 1;
    }
  }

  // CDB3's CU-based pause/resume autoscaler is the most expressive subject.
  // Control-plane timing is compressed 10x so each "minute" slot is 6 s of
  // simulated time (see DESIGN.md on time scaling).
  constexpr double kTimeScale = 0.1;
  cloud::ClusterConfig config =
      sut::MakeProfile(sut::SutKind::kCdb3, kTimeScale);
  config.node.memory_follows_vcores = true;
  config.node.vcores = config.autoscaler.min_vcores;
  SalesTransactionSet workload(SalesWorkloadConfig::ReadWrite());
  // SF1, no RO replica, exactly `config`; loaded with warm buffers, as
  // every Fig. 6 cell deploys it.
  runner::CellDeployment rig(runner::CellSpec{}, config, workload.Schemas());

  ElasticityEvaluator::Options options;
  options.tau = 110;
  options.slot = sim::Seconds(6);
  options.cost_window_slots = 10;
  ElasticityResult result =
      ElasticityEvaluator::Run(&rig.env, rig.cluster.get(), &workload,
                               pattern, options);

  std::printf("Elasticity demo — CDB3 (%s policy), pattern: %s\n\n",
              cloud::ScalingPolicyName(rig.cluster->config().autoscaler.policy),
              ElasticityPatternName(pattern));
  std::printf("%-6s %-12s %-10s %-10s\n", "slot", "concurrency", "TPS",
              "vCores");
  for (size_t i = 0; i < result.schedule.size(); ++i) {
    std::printf("%-6zu %-12d %-10.0f %-10.2f\n", i + 1, result.schedule[i],
                result.slot_tps[i], result.slot_vcores[i]);
  }
  std::printf("\nscaling events:\n");
  for (const cloud::ScalingEvent& ev : result.scaling_events) {
    std::printf("  t=%6.2fs  %.2f -> %.2f vCores\n", ev.time_s,
                ev.from_vcores, ev.to_vcores);
  }
  std::printf("\nmean TPS over pattern  %10.0f\n", result.mean_tps);
  std::printf("total cost (10-slot)   %10.4f $\n", result.total_cost.total());
  std::printf("E1-Score (Eq. 2)       %10.0f\n", result.e1_score);
  return 0;
}

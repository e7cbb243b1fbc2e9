// CloudyBench quickstart: deploy a simulated cloud-native database, load the
// sales microservice dataset, run the read-write OLTP mix, and print
// throughput, latency, cost and P-Score.
//
//   $ ./examples/quickstart [sut] [concurrency]
//     sut          one of: rds cdb1 cdb2 cdb3 cdb4    (default cdb4)
//     concurrency  client workers                      (default 100)

#include <cstdio>
#include <string>

#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "sim/environment.h"
#include "sut/profiles.h"
#include "util/string_util.h"

using namespace cloudybench;

int main(int argc, char** argv) {
  util::SetLogLevel(util::LogLevel::kWarning);
  sut::SutKind kind = sut::SutKind::kCdb4;
  if (argc > 1) {
    util::Result<sut::SutKind> parsed = sut::ParseSut(argv[1]);
    if (!parsed.ok()) {
      std::fprintf(stderr, "%s (use rds|cdb1|cdb2|cdb3|cdb4)\n",
                   parsed.status().message().c_str());
      return 1;
    }
    kind = *parsed;
  }
  int concurrency = 100;
  if (argc > 2) {
    int64_t v = 0;
    if (!util::ParseInt64(argv[2], &v) || v <= 0) {
      std::fprintf(stderr, "bad concurrency '%s'\n", argv[2]);
      return 1;
    }
    concurrency = static_cast<int>(v);
  }

  // 1. One simulation environment per experiment: everything below runs in
  //    deterministic virtual time.
  sim::Environment env;

  // 2. Build the SUT from its paper profile (Table IV) and load the sales
  //    microservice schema at scale factor 1 (~194 MB logical data).
  cloud::ClusterConfig config = sut::MakeProfile(kind);
  sut::FreezeAtMaxCapacity(&config);
  cloud::Cluster cluster(&env, config, /*n_ro_nodes=*/1);
  SalesTransactionSet workload(SalesWorkloadConfig::ReadWrite());
  cluster.Load(workload.Schemas(), /*scale_factor=*/1);
  cluster.PrewarmBuffers();

  // 3. Run the OLTP evaluator: `concurrency` closed-loop clients driving
  //    T1-T4 for ten simulated seconds after a warmup.
  OltpEvaluator::Options options;
  options.concurrency = concurrency;
  options.warmup = sim::Seconds(2);
  options.measure = sim::Seconds(10);
  OltpResult result = OltpEvaluator::Run(&env, &cluster, &workload, options);

  std::printf("CloudyBench quickstart — %s, %d clients, read-write mix\n\n",
              sut::SutName(kind), concurrency);
  std::printf("  throughput        %10.0f TPS\n", result.mean_tps);
  std::printf("  latency p50/p99   %7.2f / %.2f ms\n", result.p50_latency_ms,
              result.p99_latency_ms);
  std::printf("  commits / aborts  %10lld / %lld\n",
              static_cast<long long>(result.commits),
              static_cast<long long>(result.aborts));
  std::printf("  buffer hit rate   %10.1f %%\n",
              result.buffer_hit_rate * 100);
  std::printf("  resource cost     %10.4f $/min  (cpu %.4f mem %.4f io %.4f net %.4f)\n",
              result.cost_per_minute.total(), result.cost_per_minute.cpu,
              result.cost_per_minute.memory, result.cost_per_minute.iops,
              result.cost_per_minute.network);
  std::printf("  P-Score           %10.0f  (TPS per $/min, Eq. 1)\n",
              result.p_score);
  std::printf("  replication lag   %10.2f ms (updates)\n",
              cluster.replayer(0)->UpdateLag().mean());
  return 0;
}

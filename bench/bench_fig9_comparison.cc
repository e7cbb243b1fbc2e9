// Reproduces Figure 9: comparison of the CPU fluctuation CDB3 exhibits under
// CloudyBench's elasticity patterns vs. two established benchmarks with
// constant workloads — a SysBench-style microbenchmark at 11 threads and a
// TPC-C-style benchmark at 44 threads (the paper's peak/valley points).
//
// Paper shape: CloudyBench's four patterns (run back to back over 12 slots)
// drive CDB3's allocation across a wide range (~0.5 -> 3.25 vCores with a
// >2 vCore drop between slots), while SysBench and TPC-C produce nearly
// flat curves (<= 1 vCore of movement).
//
// Each benchmark series is one cell. `--full` extends the paper's
// CDB3-only figure to every serverless SUT (9 cells).

#include <algorithm>
#include <cstdio>

#include "bench_common.h"
#include "core/baselines.h"

namespace cloudybench::bench {
namespace {

constexpr double kTimeScale = 0.1;
constexpr int kSlots = 12;

std::vector<int> ScheduleFor(const std::string& benchmark) {
  if (benchmark == "CloudyBench") {
    // The four elasticity patterns back to back (12 slots).
    std::vector<int> schedule;
    for (ElasticityPattern pattern : AllElasticityPatterns()) {
      for (int c : ElasticitySchedule(pattern, 110)) schedule.push_back(c);
    }
    return schedule;
  }
  if (benchmark == "SysBench(11thr)") return std::vector<int>(kSlots, 11);
  CB_CHECK(benchmark == "TPC-C(44thr)") << "unknown series " << benchmark;
  return std::vector<int>(kSlots, 44);
}

runner::CellResult RunSeries(const runner::CellContext& ctx) {
  const runner::CellSpec& spec = ctx.spec;
  sim::SimTime slot = sim::Seconds(60 * kTimeScale);

  SalesWorkloadConfig sales_cfg = SalesWorkloadConfig::ReadWrite();
  sales_cfg.seed = spec.seed;
  SalesTransactionSet sales(sales_cfg);
  SysbenchLiteWorkload sysbench;
  TpccLiteWorkload tpcc;
  TransactionSet* txns = &sales;
  if (spec.pattern == "SysBench(11thr)") txns = &sysbench;
  if (spec.pattern == "TPC-C(44thr)") txns = &tpcc;

  runner::CellDeployment rig(spec, txns->Schemas());
  PerformanceCollector collector(&rig.env);
  collector.Start();
  WorkloadManager manager(&rig.env, rig.cluster.get(), txns, &collector);
  for (int concurrency : ScheduleFor(spec.pattern)) {
    manager.SetConcurrency(concurrency);
    rig.env.RunFor(slot);
  }
  manager.StopAll();

  std::vector<double> vcores = rig.cluster->meter().vcores_series().SlotMeans(
      slot.ToSeconds(), kSlots);
  runner::CellResult result;
  double lo = 1e9, hi = 0, max_drop = 0;
  for (size_t i = 0; i < vcores.size(); ++i) {
    result.AddMetric("m" + std::to_string(i + 1), vcores[i], 2);
    lo = std::min(lo, vcores[i]);
    hi = std::max(hi, vcores[i]);
    if (i > 0) max_drop = std::max(max_drop, vcores[i - 1] - vcores[i]);
  }
  result.AddText("range", F2(lo) + "-" + F2(hi));
  result.AddMetric("max_drop", max_drop, 2);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

void Run(const BenchArgs& args) {
  std::vector<sut::SutKind> suts = {sut::SutKind::kCdb3};
  if (args.full) {
    suts = {sut::SutKind::kCdb1, sut::SutKind::kCdb2, sut::SutKind::kCdb3};
  }
  std::vector<std::string> benchmarks = {"CloudyBench", "SysBench(11thr)",
                                         "TPC-C(44thr)"};

  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    for (const std::string& benchmark : benchmarks) {
      runner::CellSpec spec;
      spec.sut = kind;
      spec.scale_factor = 1;
      spec.n_ro = 0;
      spec.pattern = benchmark;
      spec.seed = args.seed;
      spec.serverless = true;
      spec.freeze_at_max = false;
      spec.time_scale = kTimeScale;
      cells.push_back(spec);
    }
  }

  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(cells, RunSeries);

  sim::SimTime slot = sim::Seconds(60 * kTimeScale);
  std::printf(
      "=== Figure 9: allocated vCores per slot (12 slots, compressed "
      "%.0fs each) ===\n\n",
      slot.ToSeconds());
  size_t idx = 0;
  for (sut::SutKind kind : suts) {
    util::TablePrinter table([&] {
      std::vector<std::string> headers{"Benchmark"};
      for (int i = 1; i <= kSlots; ++i) {
        headers.push_back("m" + std::to_string(i));
      }
      headers.push_back("range");
      headers.push_back("maxDrop");
      return headers;
    }());
    for (const std::string& benchmark : benchmarks) {
      const runner::CellResult& r = results[idx++];
      std::vector<std::string> row{benchmark};
      for (int i = 1; i <= kSlots; ++i) {
        row.push_back(r.ok ? r.Text("m" + std::to_string(i)) : "ERR");
      }
      row.push_back(r.Text("range"));
      row.push_back(r.Text("max_drop"));
      table.AddRow(row);
    }
    table.Print(std::string("--- ") + sut::SutName(kind) + " ---");
    std::printf("\n");
  }
  std::printf(
      "CloudyBench's peaks and valleys exercise the full scaling range;\n"
      "the constant baselines keep the allocation nearly flat.\n");
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

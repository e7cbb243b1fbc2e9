// Per-layer latency breakdown of the five cloud databases, produced from
// the observability layer's transaction traces (DESIGN.md "Observability").
//
// For every SUT at SF10 the trace recorder captures each committed
// transaction's spans (lock wait, CPU, buffer-miss path, log force, client
// round trips); the LatencyBreakdown analyzer folds them into exclusive
// time-in-layer per transaction type. Cross-check: the per-type mean
// end-to-end latency reconstructed from the trace must agree with the
// PerformanceCollector's independently measured latency histograms to
// within 5% — the trace decomposition explains the whole latency, not a
// sample of it.
//
// --trace-template=T writes each SUT's measured-window Chrome trace (load
// it at ui.perfetto.dev).

#include <cmath>
#include <cstdio>

#include "bench_common.h"
#include "obs/breakdown.h"
#include "obs/metric_registry.h"
#include "obs/trace.h"

namespace cloudybench::bench {
namespace {

constexpr double kMaxDeltaPct = 5.0;

/// Runs the sim until every worker has retired. Workers reference their
/// manager and collector from coroutines, so both must be fully drained
/// before those objects go out of scope (and before the trace/histogram
/// comparison, which requires the two to have seen the same transactions).
void DrainWorkers(sim::Environment* env, WorkloadManager* manager) {
  manager->StopAll();
  for (int i = 0; i < 600 && manager->concurrency() > 0; ++i) {
    env->RunFor(sim::Millis(100));
  }
  CB_CHECK_EQ(manager->concurrency(), 0) << "workers failed to drain";
}

runner::CellResult RunBreakdownCell(const runner::CellContext& ctx) {
  const runner::CellSpec& spec = ctx.spec;
  // All four sales transactions, T3-heavy like the read-write preset but
  // with a T4 share so the deletion path shows up in the table.
  SalesWorkloadConfig cfg;
  cfg.ratios = {15, 5, 70, 10};
  cfg.seed = spec.seed;
  SalesTransactionSet txns(cfg);
  runner::CellDeployment rig(spec, txns.Schemas());
  sim::Environment& env = rig.env;
  obs::TraceRecorder& recorder = obs::TraceRecorder::Get();

  // Warmup with tracing off (even when a trace template armed the
  // recorder), and let the warmup workers drain so no half-traced
  // transaction straddles the measurement boundary.
  recorder.SetEnabled(false);
  {
    PerformanceCollector warm_collector(&env);
    warm_collector.Start();
    WorkloadManager warm(&env, rig.cluster.get(), &txns, &warm_collector);
    warm.SetConcurrency(spec.concurrency);
    env.RunFor(spec.warmup);
    DrainWorkers(&env, &warm);
  }

  // Measure with tracing on and a fresh collector: trace and histogram
  // cover exactly the same transactions.
  recorder.Clear();
  recorder.SetEnabled(true);
  PerformanceCollector collector(&env);
  collector.Start();
  collector.RegisterWith(&obs::MetricRegistry::Get(), "breakdown.");
  WorkloadManager manager(&env, rig.cluster.get(), &txns, &collector);
  manager.SetConcurrency(spec.concurrency);
  env.RunFor(spec.measure);
  DrainWorkers(&env, &manager);
  recorder.SetEnabled(false);

  obs::LatencyBreakdown breakdown = obs::LatencyBreakdown::FromTrace(recorder);
  runner::CellResult result;
  const std::vector<obs::LatencyBreakdown::Row>& rows = breakdown.rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const obs::LatencyBreakdown::Row& row = rows[i];
    TxnType type = static_cast<TxnType>(row.label);
    double n = static_cast<double>(row.txns);
    auto layer = [&](obs::Layer l) {
      return row.layer_ms[static_cast<int>(l)] / n;
    };
    double total = row.total_ms / n;
    double e2e = collector.latency(type).mean() / 1000.0;  // us -> ms
    double delta_pct = e2e > 0 ? (total - e2e) / e2e * 100.0 : 0.0;
    CB_CHECK_EQ(row.txns, collector.commits_of(type))
        << sut::SutName(spec.sut) << " " << TxnTypeName(type)
        << ": trace and collector disagree on commit count";
    CB_CHECK(std::fabs(delta_pct) < kMaxDeltaPct)
        << sut::SutName(spec.sut) << " " << TxnTypeName(type)
        << ": breakdown total " << total << "ms vs collector " << e2e << "ms";

    std::string p = "r" + std::to_string(i) + ".";
    result.AddText(p + "txn", TxnTypeName(type));
    result.AddMetric(p + "commits", n, 0);
    result.AddMetric(p + "lock_ms", layer(obs::Layer::kLock), 2);
    result.AddMetric(p + "cpu_ms", layer(obs::Layer::kCpu), 2);
    result.AddMetric(p + "buffer_ms", layer(obs::Layer::kBuffer), 2);
    result.AddMetric(p + "log_ms", layer(obs::Layer::kLog), 2);
    result.AddMetric(p + "net_ms", layer(obs::Layer::kNet), 2);
    // txn/op/commit exclusive time is bookkeeping between the interesting
    // layers; fold it into one column.
    result.AddMetric(p + "other_ms",
                     layer(obs::Layer::kTxn) + layer(obs::Layer::kOp) +
                         layer(obs::Layer::kCommit),
                     2);
    result.AddMetric(p + "total_ms", total, 2);
    result.AddMetric(p + "e2e_ms", e2e, 2);
    result.AddMetric(p + "delta_pct", delta_pct, 2);
  }
  result.AddMetric("rows", static_cast<double>(rows.size()), 0);
  result.sim_seconds = env.Now().ToSeconds();
  return result;
}

void Run(const BenchArgs& args) {
  std::vector<sut::SutKind> suts = sut::AllSuts();
  std::vector<runner::CellSpec> cells;
  for (sut::SutKind kind : suts) {
    runner::CellSpec spec;
    spec.sut = kind;
    spec.scale_factor = 10;
    spec.n_ro = 1;
    spec.concurrency = 100;
    spec.pattern = "T1-T4";
    spec.seed = args.seed;
    spec.measure = args.full ? sim::Seconds(3) : sim::Seconds(2);
    cells.push_back(spec);
  }
  std::vector<runner::CellResult> results =
      runner::MatrixRunner(args.runner).Run(cells, RunBreakdownCell);

  std::printf("=== Per-layer latency breakdown (SF%lld, con=%d) ===\n",
              static_cast<long long>(cells[0].scale_factor),
              cells[0].concurrency);
  std::printf("exclusive ms/txn per layer; E2E = collector mean; "
              "|delta| must be < %.0f%%\n", kMaxDeltaPct);
  for (size_t s = 0; s < suts.size(); ++s) {
    const runner::CellResult& r = results[s];
    CB_CHECK(r.ok) << sut::SutName(suts[s]) << ": " << r.error;
    util::TablePrinter table({"Txn", "Commits", "Lock", "CPU", "Buffer",
                              "Log", "Net", "Other", "Total", "E2E", "Delta%"});
    for (int i = 0; i < static_cast<int>(r.Number("rows")); ++i) {
      std::vector<std::string> row;
      for (const char* column :
           {"txn", "commits", "lock_ms", "cpu_ms", "buffer_ms", "log_ms",
            "net_ms", "other_ms", "total_ms", "e2e_ms", "delta_pct"}) {
        row.push_back(r.Text("r" + std::to_string(i) + "." + column));
      }
      table.AddRow(row);
    }
    table.Print("\n--- " + std::string(sut::SutName(suts[s])) + " ---");
  }
  std::printf("\nall breakdown totals within %.0f%% of collector E2E "
              "latencies\n", kMaxDeltaPct);
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

// Reproduces Figure 7: the timeline of CDB4's fail-over process — prepare
// (detect + refuse requests, collect LSNs), switch-over (promote an RO to
// the new RW), and recovering (roll back in-flight transactions while
// serving). The paper observes ~1 s prepare, ~2 s switch-over, ~3 s
// recovering, with the cluster fully back after ~6 s.
//
// The phase column is read off the structured event journal, which the
// cell arms itself: the cluster emits failover.* events as recovery
// progresses, and each printed row shows the phase of the latest event at
// or before its timestamp.

#include <cstdio>
#include <string>

#include "bench_common.h"
#include "obs/metric_registry.h"
#include "obs/timeline.h"

namespace cloudybench::bench {
namespace {

/// Rows every 0.5 s from the failure to 12 s after it.
constexpr double kStep = 0.5;
constexpr double kHorizon = 12.0;

/// Fail-over phase at absolute sim time `t_abs_s`, per the event journal.
/// Kinds outside the fail-over state machine (capacity.fraction ramp steps,
/// checkpoint.flush, undo_complete, rejoin, ...) do not change the phase.
const char* PhaseFromJournal(double t_abs_s) {
  int64_t t_us = static_cast<int64_t>(t_abs_s * 1e6 + 0.5);
  const char* phase = "heartbeat detection";
  for (const obs::TimelineEvent& e : obs::Timeline::Get().events()) {
    if (e.t_us > t_us) break;
    if (e.kind == "failover.inject" || e.kind == "failover.detect") {
      phase = "heartbeat detection";
    } else if (e.kind == "failover.prepare") {
      phase = "prepare (refuse requests, collect LSNs)";
    } else if (e.kind == "failover.switchover" ||
               e.kind == "failover.promote") {
      phase = "switch over (promote RO->RW')";
    } else if (e.kind == "failover.recovering") {
      phase = "recovering (rollback via undo)";
    } else if (e.kind == "failover.recovered") {
      phase = "recovered";
    }
  }
  return phase;
}

runner::CellResult RunTimelineCell(const runner::CellContext& ctx) {
  const runner::CellSpec& spec = ctx.spec;
  // The journal drives the phase column, so the timeline is armed even when
  // no timeline template asked for artifacts — before deploying, so the
  // deployment's sampler starts too.
  obs::Timeline::Get().SetEnabled(true);
  SalesWorkloadConfig cfg = runner::SalesConfigFor(spec);
  cfg.route_reads_to_replicas = false;  // keep every txn in one TPS stream
  SalesTransactionSet txns(cfg);
  runner::CellDeployment rig(spec, txns.Schemas());

  PerformanceCollector collector(&rig.env, sim::Millis(250));
  collector.RegisterWith(&obs::MetricRegistry::Get(), "oltp.");
  collector.Start();
  WorkloadManager manager(&rig.env, rig.cluster.get(), &txns, &collector);
  manager.SetConcurrency(spec.concurrency);
  rig.env.RunFor(spec.warmup);

  cloud::ComputeNode* old_rw = rig.cluster->rw();
  cloud::ComputeNode* old_ro = rig.cluster->ro(0);
  double t_f = rig.env.Now().ToSeconds();
  rig.cluster->InjectRwRestart(rig.env.Now());

  auto describe = [](cloud::ComputeNode* node) {
    std::string s = node->is_rw() ? "RW" : "RO";
    s += node->available() ? " (up)" : " (down)";
    return s;
  };
  runner::CellResult result;
  for (double dt = 0.0; dt <= kHorizon; dt += kStep) {
    rig.env.RunUntil(sim::Seconds(t_f + dt));
    // The collector stamps each 250 ms sample at its window end, so the
    // trailing (t-0.5, t] window holds exactly the two samples the old
    // epsilon-shifted [t-0.5+eps, t+eps) arithmetic selected.
    std::string at = "@" + F1(dt);
    result.AddMetric("tps" + at,
                     collector.tps_series().MeanInTrailingWindow(t_f + dt,
                                                                 kStep),
                     0);
    result.AddText("node_a" + at, describe(old_rw));
    result.AddText("node_b" + at, describe(old_ro));
    result.AddText("phase" + at, PhaseFromJournal(t_f + dt));
  }
  manager.StopAll();
  rig.env.RunFor(sim::Seconds(2));

  result.AddText("promoted", rig.cluster->rw() == old_ro ? "yes" : "no");
  result.AddMetric(
      "remote_resident_pages",
      static_cast<double>(rig.cluster->remote_buffer()->resident_pages()), 0);
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

void Run(const BenchArgs& args) {
  runner::CellSpec spec;
  spec.sut = sut::SutKind::kCdb4;
  spec.n_ro = 1;
  spec.concurrency = 150;
  spec.seed = args.seed;
  spec.warmup = sim::Seconds(5);
  spec.measure = sim::Seconds(kHorizon);
  runner::CellResult r =
      runner::MatrixRunner(args.runner).Run({spec}, RunTimelineCell)[0];
  CB_CHECK(r.ok) << "fig7 cell failed: " << r.error;

  std::printf("=== Figure 7: CDB4 fail-over timeline (failure at t=0) ===\n\n");
  std::printf("%-8s %-6s %-28s %-28s %s\n", "t(s)", "TPS", "node A (old RW)",
              "node B (old RO)", "phase");
  for (double dt = 0.0; dt <= kHorizon; dt += kStep) {
    std::string at = "@" + F1(dt);
    std::printf("%-8s %-6.0f %-28s %-28s %s\n", F1(dt).c_str(),
                r.Number("tps" + at), r.Text("node_a" + at).c_str(),
                r.Text("node_b" + at).c_str(), r.Text("phase" + at).c_str());
  }
  std::printf("\nnew RW is the promoted node: %s\n", r.Text("promoted").c_str());
  std::printf("remote buffer pool stayed warm: %s pages resident\n",
              r.Text("remote_resident_pages").c_str());
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

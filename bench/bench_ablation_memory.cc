// Ablation: how much of CDB4's advantage comes from memory disaggregation?
//
// Holding the CDB4 substrate fixed, we remove or shrink the remote buffer
// pool and measure (1) read-write throughput at SF100 (where the working
// set exceeds the 10 GB local buffer) and (2) fail-over recovery (where the
// warm remote tier is what makes TPS recovery near-instant, paper §III-E).

#include <cstdio>

#include "bench_common.h"

namespace cloudybench::bench {
namespace {

struct Variant {
  const char* name;
  const char* key;  ///< cell-id suffix
  bool remote_buffer;
  int64_t remote_bytes;
};

/// CDB4 with the variant's remote tier: read-write throughput, or with
/// `failover` the F/R recovery of an RW restart.
runner::CellResult RunVariantCell(const runner::CellSpec& spec,
                                  const Variant& v, bool failover) {
  SalesWorkloadConfig workload = runner::SalesConfigFor(spec);
  if (failover) workload.route_reads_to_replicas = false;
  SalesTransactionSet txns(workload);
  cloud::ClusterConfig cfg = runner::ClusterConfigFor(spec);
  cfg.remote_buffer = v.remote_buffer;
  cfg.remote_buffer_bytes = v.remote_bytes;
  if (!v.remote_buffer) {
    cfg.node.miss_path = cloud::MissPath::kDisaggregatedStorage;
    if (failover) {
      // Without the warm remote tier the promoted node reconnects and warms
      // like a storage-disaggregated CDB.
      cfg.recovery.tps_rampup = sim::Seconds(12);
      cfg.recovery.ramp_start = 0.10;
    } else {
      cfg.extra_memory_gb = 0;
    }
  }
  runner::CellDeployment rig(spec, cfg, txns.Schemas());
  runner::CellResult result;
  if (failover) {
    FailoverEvaluator::Options options;
    options.concurrency = spec.concurrency;
    options.warmup = spec.warmup;
    options.target_tps = -1;
    options.max_observation = spec.measure;
    FailoverResult r =
        FailoverEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);
    result.AddMetric("f_s", r.f_seconds, 1);
    result.AddMetric("r_s", r.r_seconds, 1);
  } else {
    OltpEvaluator::Options options;
    options.concurrency = spec.concurrency;
    options.warmup = spec.warmup;
    options.measure = spec.measure;
    OltpResult r =
        OltpEvaluator::Run(&rig.env, rig.cluster.get(), &txns, options);
    cloud::RemoteBufferPool* remote = rig.cluster->remote_buffer();
    result.AddMetric("tps", r.mean_tps, 0);
    result.AddMetric(
        "remote_hits",
        remote != nullptr ? static_cast<double>(remote->fetches()) : 0.0, 0);
  }
  result.sim_seconds = rig.env.Now().ToSeconds();
  return result;
}

void Run(const BenchArgs& args) {
  std::vector<Variant> variants = {
      {"no remote buffer", "no-remote", false, 0},
      {"remote 4GB", "remote-4GB", true, 4LL << 30},
      {"remote 24GB (CDB4)", "remote-24GB", true, 24LL << 30},
  };

  // Matrix order: variant (outer) -> SF100 throughput, SF1 fail-over.
  std::vector<runner::CellSpec> cells;
  for (const Variant& v : variants) {
    runner::CellSpec spec;
    spec.sut = sut::SutKind::kCdb4;
    spec.n_ro = 1;
    spec.concurrency = 150;
    spec.seed = args.seed;

    spec.scale_factor = 100;
    spec.measure = args.full ? sim::Seconds(4) : sim::Seconds(2);
    spec.id = runner::DefaultCellId(spec) + "/" + v.key;
    cells.push_back(spec);

    spec.scale_factor = 1;
    spec.warmup = sim::Seconds(4);
    spec.measure = sim::Seconds(60);  // longest observation after failure
    spec.id = runner::DefaultCellId(spec) + "/" + v.key + "/failover";
    cells.push_back(spec);
  }
  std::vector<runner::CellResult> results = runner::MatrixRunner(args.runner)
      .Run(cells, [&variants](const runner::CellContext& ctx) {
        return RunVariantCell(ctx.spec, variants[ctx.index / 2],
                              /*failover=*/ctx.index % 2 == 1);
      });

  std::printf(
      "=== Ablation: memory disaggregation (CDB4 base, RW SF100 con=150; "
      "fail-over at SF1) ===\n\n");
  util::TablePrinter table({"Variant", "TPS@SF100", "RemoteHits", "F(s)",
                            "R(s)"});
  for (size_t i = 0; i < variants.size(); ++i) {
    const runner::CellResult& tps = results[2 * i];
    const runner::CellResult& failover = results[2 * i + 1];
    table.AddRow({variants[i].name, tps.ok ? tps.Text("tps") : "ERR",
                  tps.Text("remote_hits"),
                  failover.ok ? failover.Text("f_s") : "ERR",
                  failover.Text("r_s")});
  }
  table.Print();
  std::printf(
      "\nThe remote tier absorbs SF100's working set (TPS) and survives the\n"
      "compute restart (R) — removing it degrades both, which is the paper's\n"
      "architectural claim for memory disaggregation.\n");
}

}  // namespace
}  // namespace cloudybench::bench

int main(int argc, char** argv) {
  cloudybench::bench::Run(cloudybench::bench::BenchArgs::Parse(argc, argv));
  return 0;
}

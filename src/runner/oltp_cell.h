#ifndef CLOUDYBENCH_RUNNER_OLTP_CELL_H_
#define CLOUDYBENCH_RUNNER_OLTP_CELL_H_

#include <memory>
#include <vector>

#include "cloud/cluster.h"
#include "core/sales_workload.h"
#include "obs/timeline.h"
#include "runner/runner.h"
#include "sim/environment.h"
#include "storage/synthetic_table.h"

namespace cloudybench::runner {

/// The cluster configuration a CellSpec describes: the SUT profile at the
/// spec's time scale → (optional) serverless conversion → (optional) freeze
/// at max. Cells that vary the configuration itself (the ablations) start
/// from this and deploy through CellDeployment's config constructor.
cloud::ClusterConfig ClusterConfigFor(const CellSpec& spec);

/// One deployed SUT built from a CellSpec: fresh environment + loaded,
/// prewarmed cluster. Every single-cluster experiment deploys through it:
/// ClusterConfigFor(spec) (or a caller-tweaked config) → load schemas at
/// the spec's scale factor with spec.n_ro replicas → prewarm buffers.
struct CellDeployment {
  CellDeployment(const CellSpec& spec,
                 const std::vector<storage::TableSchema>& schemas);
  CellDeployment(const CellSpec& spec, const cloud::ClusterConfig& config,
                 const std::vector<storage::TableSchema>& schemas);

  sim::Environment env;
  std::unique_ptr<cloud::Cluster> cluster;
  /// Periodic metric sampling for the cell's timeline artifact; Start() is
  /// called after deploy and no-ops when the thread-local Timeline is
  /// disabled, so cells without timeline templates pay nothing.
  obs::TimelineSampler sampler{&env};
};

/// Maps the spec's pattern label ("RO" / "RW" / "WO") plus seed to a sales
/// workload config. CB_CHECKs on any other label — custom patterns need a
/// custom cell function.
SalesWorkloadConfig SalesConfigFor(const CellSpec& spec);

/// The standard throughput cell every table/figure sweep starts from:
/// drives the sales workload at the spec's concurrency through
/// OltpEvaluator and reports, as columns:
///
///   tps, p50_ms, p99_ms, commits, aborts, cost_per_min (+ cpu/mem/
///   storage/iops/network components), p_score, buffer_hit_pct, and the
///   mean allocated vcores / memory_gb / storage_gb / iops / net_gbps.
///
/// Honors ctx.metrics_path (per-cell metrics snapshot while the cluster's
/// gauges are still registered).
CellResult RunOltpCell(const CellContext& ctx);

/// RunOltpCell driving `workload` instead of SalesConfigFor(ctx.spec) —
/// for mixes the spec's pattern label cannot name, such as the props
/// testbed's latest-k distribution. Same columns.
CellResult RunOltpWorkloadCell(const CellContext& ctx,
                               const SalesWorkloadConfig& workload);

/// Multi-tenant OLTP rows (DESIGN.md §4k). A tenant is an isolated
/// single-tenant deployment of the cell's SUT, i.e. an ordinary cell: a
/// row of N tenants runs TenantSpec(cell, 0..N-1) as N RunOltpCell cells
/// on the caller's MatrixRunner, then folds the N rows with
/// MergeTenantRows. Tenant seeds derive from (cell seed, tenant index)
/// only, so the merged row is byte-identical at any --jobs.

/// The spec tenant `tenant` of `cell` runs with: same coordinates, id
/// "<cell id>/tenant<i>", and the seed split via
/// SplitSeed(cell.seed, util::kTenantStream, tenant).
CellSpec TenantSpec(const CellSpec& cell, int tenant);

/// Pure fold of tenant rows (in tenant-index order) into one row:
///
///   tps/commits/aborts/cost_*/vcores/memory_gb/storage_gb/iops/net_gbps
///   summed across tenants; p50_ms/p99_ms/p_score/buffer_hit_pct
///   commit-weighted means (plain means when nothing committed); one
///   "t<i>_tps" column per tenant; sim_seconds = sum of per-tenant clocks.
///
/// A failed tenant row is left out of every sum and weight and reports
/// t<i>_tps = 0; the merged row carries "tenant <i>: <error>" for the first
/// failure by index. The merged id is cell.id, or DefaultCellId(cell) +
/// "/t<N>" when that is empty.
CellResult MergeTenantRows(const CellSpec& cell,
                           const std::vector<CellResult>& tenant_results);

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_OLTP_CELL_H_

#ifndef CLOUDYBENCH_RUNNER_SECTION_CELLS_H_
#define CLOUDYBENCH_RUNNER_SECTION_CELLS_H_

#include <vector>

#include "core/patterns.h"
#include "core/sales_workload.h"
#include "runner/runner.h"
#include "sim/sim_time.h"

namespace cloudybench::runner {

/// The paper's section evaluations as runner cells, shared by the section
/// benches (Table VIII, lag, Fig. 6, Table VII) and by Table IX, which
/// folds their raw Number() values into the PERFECT scores. A `*_star`
/// column is the score at the vendor's actual pricing.

/// Fail-over (§III-E): drives `workload` at spec.concurrency, restarts the
/// spec.pattern node ("RW" or "RO"; needs n_ro >= 1) after spec.warmup and
/// observes recovery for spec.measure. An RW failure keeps every read on
/// the RW node; an RO failure routes reads to the replicas, pinned to the
/// failing one when `sticky_ro`. `target_tps` is the absolute recovery
/// target; <= 0 means 90% of the SUT's own pre-failure TPS. Columns: f_s,
/// r_s (0 unless service was lost), service_lost (0/1), pre_failure_tps,
/// target_tps.
CellResult RunFailoverCell(const CellContext& ctx,
                           const SalesWorkloadConfig& workload, bool sticky_ro,
                           double target_tps);

/// Replication lag (§III-F) of one insert/update/delete mix (n_ro >= 1).
/// Columns: insert_lag_ms, update_lag_ms, delete_lag_ms, c_score.
CellResult RunLagCell(const CellContext& ctx, int insert_pct, int update_pct,
                      int delete_pct);

/// Elasticity (§III-C): drives `workload` through the per-slot concurrency
/// `schedule` (ElasticitySchedule(pattern, tau) for a paper pattern), each
/// slot lasting `slot`. Columns: schedule, tps, total_cost, scaled_cost,
/// e1_score, e1_star, scaling_events.
CellResult RunElasticityCell(const CellContext& ctx,
                             const SalesWorkloadConfig& workload,
                             const std::vector<int>& schedule,
                             sim::SimTime slot);

/// Workload slots of the benches' multi-tenancy cells.
constexpr int kTenancySlots = 3;

/// Multi-tenancy (§III-D): `tenants` tenants under `pattern` at tau =
/// spec.concurrency for `slots` slots of `slot` each. Columns: tps,
/// t_score, resources, cost_per_min, dollars, ktxn, t_star.
CellResult RunTenancyCell(const CellContext& ctx, TenancyPattern pattern,
                          int tenants, int slots, sim::SimTime slot);

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_SECTION_CELLS_H_

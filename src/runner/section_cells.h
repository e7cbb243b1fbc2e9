#ifndef CLOUDYBENCH_RUNNER_SECTION_CELLS_H_
#define CLOUDYBENCH_RUNNER_SECTION_CELLS_H_

#include "core/patterns.h"
#include "runner/runner.h"

namespace cloudybench::runner {

/// The paper's section evaluations as runner cells, shared by the section
/// benches (Table VIII, lag, Fig. 6, Table VII) and by Table IX, which
/// folds their raw Number() values into the PERFECT scores. A `*_star`
/// column is the score at the vendor's actual pricing.

/// Fail-over (§III-E): restarts the spec.pattern node ("RW" or "RO"; needs
/// n_ro >= 1) after spec.warmup and observes recovery for spec.measure.
/// Columns: f_s, r_s (0 unless service was lost), service_lost (0/1).
CellResult RunFailoverCell(const CellContext& ctx);

/// Replication lag (§III-F) of one insert/update/delete mix (n_ro >= 1).
/// Columns: insert_lag_ms, update_lag_ms, delete_lag_ms, c_score.
CellResult RunLagCell(const CellContext& ctx, int insert_pct, int update_pct,
                      int delete_pct);

/// Elasticity (§III-C): `pattern` at tau = spec.concurrency, slots of
/// 60 s x spec.time_scale. Columns: schedule, tps, total_cost,
/// scaled_cost, e1_score, e1_star.
CellResult RunElasticityCell(const CellContext& ctx,
                             ElasticityPattern pattern);

/// Workload slots of one multi-tenancy cell.
constexpr int kTenancySlots = 3;

/// Multi-tenancy (§III-D): three tenants under `pattern` at tau =
/// spec.concurrency for kTenancySlots slots of 60 s x spec.time_scale.
/// Columns: tps, t_score, resources, cost_per_min, dollars, ktxn, t_star.
CellResult RunTenancyCell(const CellContext& ctx, TenancyPattern pattern);

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_SECTION_CELLS_H_

#ifndef CLOUDYBENCH_RUNNER_TESTBED_H_
#define CLOUDYBENCH_RUNNER_TESTBED_H_

#include "runner/runner.h"
#include "util/properties.h"
#include "util/status.h"

namespace cloudybench::runner {

/// The config-file-driven testbed front end (paper Fig. 1): given a `props`
/// configuration, runs the selected evaluations against the selected SUT and
/// prints their reports. This is the integration surface the paper
/// describes for extending patterns — e.g. add a fourth elasticity slot by
/// setting `elastic_testTime = 4` and `fourth_con = ...`. Each enabled
/// section is one cell of the shared section cells (runner/oltp_cell.h,
/// runner/section_cells.h), and all of them run on one MatrixRunner, so a
/// props run takes the runner's --jobs, --jsonl and per-cell artifact
/// templates like any bench.
///
/// Recognized keys (all optional unless noted). RunAll rejects any other
/// key, and any value outside a `|` list below (case-insensitive), before
/// any section runs.
///
///   sut                = rds | cdb1 | cdb2 | cdb3 | cdb4     (required)
///   scale_factor       = 1 | 10 | 100
///   seed               = 42
///   time_scale         = 0.1            # elasticity control-plane compression
///
///   [workload]
///   pattern            = readwrite | readonly | writeonly
///   distribution       = uniform | latest
///   latest_k           = 10
///
///   [oltp]             enable, concurrency, seconds
///
///   [elasticity]       enable, tau, slot_seconds,
///                      pattern = peak|spike|valley|zero, or a custom
///                      schedule: elastic_testTime = N (at most 8) plus
///                      first_con, second_con, ..., eighth_con (paper keys)
///
///   [tenancy]          enable, tenants, tau, slot_seconds, slots,
///                      pattern = high|low|staggered_high|staggered_low
///
///   [failover]         enable, node = rw|ro, concurrency, target_tps
///
///   [lag]              enable, concurrency, insert, update, delete
///
/// The JSONL row of a section has the id `oltp`, `elasticity`, `tenancy`,
/// `failover` or `lag` and the columns of its cell function.
class Testbed {
 public:
  explicit Testbed(util::Properties props, RunnerOptions runner = {});

  /// Runs every enabled section, printing one report line per section to
  /// stdout in the order above.
  util::Status RunAll();

 private:
  util::Properties props_;
  RunnerOptions runner_;
};

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_TESTBED_H_

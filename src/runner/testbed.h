#ifndef CLOUDYBENCH_RUNNER_TESTBED_H_
#define CLOUDYBENCH_RUNNER_TESTBED_H_

#include <string>

#include "core/report.h"
#include "runner/matrix.h"
#include "util/properties.h"
#include "util/status.h"

namespace cloudybench::runner {

/// The config-file-driven testbed front end (paper Fig. 1): given a `props`
/// configuration, runs the selected evaluators against the selected SUT and
/// prints their reports. This is the integration surface the paper
/// describes for extending patterns — e.g. add a fourth elasticity slot by
/// setting `elastic_testTime = 4` and `fourth_con = ...`. Each single-SUT
/// section deploys through CellDeployment (runner/oltp_cell.h), like every
/// bench cell.
///
/// Recognized keys (all optional unless noted); RunAll rejects any value
/// outside a `|` list below (case-insensitive) before any section runs.
///
///   sut                = rds | cdb1 | cdb2 | cdb3 | cdb4     (required)
///   scale_factor       = 1 | 10 | 100
///   seed               = 42
///   time_scale         = 0.1            # control-plane compression
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
///   [tenancy]          enable, tenants, tau,
///                      pattern = high|low|staggered_high|staggered_low
///
///   [failover]         enable, node = rw|ro, concurrency, target_tps
///
///   [lag]              enable, concurrency, insert, update, delete
///
///   [output]           csv_dir = path   # also write results as CSV files
class Testbed {
 public:
  explicit Testbed(util::Properties props);

  /// Runs every enabled evaluation, printing reports to stdout.
  util::Status RunAll();

 private:
  util::Status RunOltp(ReportWriter* report);
  util::Status RunElasticity(ReportWriter* report);
  util::Status RunTenancy(ReportWriter* report);
  util::Status RunFailover(ReportWriter* report);
  util::Status RunLag(ReportWriter* report);

  util::Properties props_;
  /// Set by RunAll: the `sut` value as written (the report's row key) and
  /// the throughput-style deployment (one RO replica, pinned at max
  /// capacity) of that SUT at the props scale factor.
  std::string sut_name_;
  CellSpec spec_;
};

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_TESTBED_H_

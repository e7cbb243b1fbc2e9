#ifndef CLOUDYBENCH_CORE_TENANCY_H_
#define CLOUDYBENCH_CORE_TENANCY_H_

#include <memory>
#include <vector>

#include "cloud/cluster.h"
#include "core/patterns.h"
#include "core/sales_workload.h"
#include "sim/environment.h"
#include "sut/profiles.h"

namespace cloudybench {

/// How a SUT deploys multiple tenants (paper §III-D):
enum class TenancyModel {
  /// A separate instance per tenant — fully isolated, network and IOPS
  /// bills multiply (AWS RDS, CDB1, CDB4).
  kIsolatedInstances,
  /// CDB2's elastic pool: tenants share vCores, memory and the log
  /// service; the pool schedules resources to whoever demands them.
  kElasticPool,
  /// CDB3's git-style branches: shared storage, but each branch has fixed,
  /// isolated compute.
  kBranches,
};

const char* TenancyModelName(TenancyModel model);
TenancyModel TenancyModelFor(sut::SutKind kind);

/// A multi-tenant deployment of one SUT: N tenant databases wired per the
/// SUT's tenancy model, plus the deployment-level resource/cost accounting
/// that Table VII reports (isolated instances triple network+IOPS; the
/// pool bills compute once; branches bill storage once).
///
/// This is the one deploy path outside runner::CellDeployment (DESIGN.md
/// §4k). The elastic pool shares one SlotResource CPU and one log
/// DiskDevice across its tenant clusters, so every tenant lives in one
/// environment against resources this object owns; a CellDeployment is one
/// cluster in its own environment with its own CPU and log device.
class MultiTenantDeployment {
 public:
  /// `time_scale` compresses control-plane timing (branch pause/resume)
  /// exactly like sut::MakeProfile.
  MultiTenantDeployment(sim::Environment* env, sut::SutKind kind,
                        int tenants, int64_t scale_factor,
                        double time_scale = 1.0);
  ~MultiTenantDeployment();

  MultiTenantDeployment(const MultiTenantDeployment&) = delete;
  MultiTenantDeployment& operator=(const MultiTenantDeployment&) = delete;

  int tenants() const { return static_cast<int>(clusters_.size()); }
  cloud::Cluster* tenant(int i) { return clusters_[static_cast<size_t>(i)].get(); }
  TenancyModel model() const { return model_; }
  sut::SutKind kind() const { return kind_; }

  /// Deployment-level allocation (Table VII's "Total Resources" column).
  cloud::ResourceVector TotalResources() const;
  /// RUC dollars per minute for the whole deployment.
  cloud::CostBreakdown CostPerMinute() const;

 private:
  sim::Environment* env_;
  sut::SutKind kind_;
  TenancyModel model_;
  cloud::PriceBook prices_;
  // Shared pool resources (elastic-pool model only).
  std::unique_ptr<sim::SlotResource> pool_cpu_;
  std::unique_ptr<storage::DiskDevice> pool_log_;
  std::vector<std::unique_ptr<cloud::Cluster>> clusters_;
};

/// Result of one multi-tenancy pattern run (one row-cell of Table VII).
struct TenancyResult {
  std::vector<double> tenant_tps;  // mean TPS per tenant over the window
  double total_tps = 0;            // sum of tenant means
  cloud::CostBreakdown cost_per_minute;
  double t_score = 0;  // Eq. (7)
  // ---- cost attribution (obs v2) ----
  std::vector<int64_t> tenant_commits;  // commits per tenant over the window
  int64_t total_commits = 0;
  /// Metered RUC dollars attributed to each tenant over the window, from
  /// the tenant-tagged ResourceMeter sources. Shared infrastructure (the
  /// elastic pool's compute, say) is deliberately absent: this is the
  /// attributable slice, not a re-derivation of cost_per_minute.
  std::vector<double> tenant_ruc_dollars;
  double window_s = 0;  // measured-window length in simulated seconds
};

class MultiTenancyEvaluator {
 public:
  struct Options {
    int slots = 3;
    sim::SimTime slot = sim::Seconds(60);
    /// Saturation concurrency tau; the paper uses the max across SUTs for
    /// the high patterns and the min for the low patterns.
    int tau = 330;
  };

  static TenancyResult Run(sim::Environment* env,
                           MultiTenantDeployment* deployment,
                           TenancyPattern pattern, const Options& options);
};

}  // namespace cloudybench

#endif  // CLOUDYBENCH_CORE_TENANCY_H_

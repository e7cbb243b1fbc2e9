#ifndef CLOUDYBENCH_CLOUD_METER_H_
#define CLOUDYBENCH_CLOUD_METER_H_

#include <functional>
#include <map>
#include <vector>

#include "cloud/pricing.h"
#include "sim/environment.h"
#include "sim/task.h"
#include "util/stats.h"

namespace cloudybench::cloud {

/// Samples the cluster's allocated resources on a fixed simulated cadence
/// and turns the resulting step curves into dollars.
///
/// Sources are callbacks (one per node/service) returning their currently
/// allocated ResourceVector; autoscaling therefore shows up in the series
/// automatically, and Table VI's "cost during scaling" falls out of the
/// step integral.
///
/// Sources can be tagged with a tenant id, in which case the meter keeps a
/// per-tenant attributed cost-rate series next to the deployment totals —
/// the multi-tenancy evaluation reads these back as per-tenant RUC dollars
/// (Table VII's cost-attribution breakdown).
class ResourceMeter {
 public:
  ResourceMeter(sim::Environment* env, PriceBook prices,
                sim::SimTime sample_interval = sim::Seconds(1));

  ResourceMeter(const ResourceMeter&) = delete;
  ResourceMeter& operator=(const ResourceMeter&) = delete;

  /// `tenant_id` >= 0 attributes this source's allocation to that tenant
  /// (in addition to the deployment totals); -1 leaves it unattributed
  /// (shared infrastructure).
  void AddSource(std::function<ResourceVector()> source, int tenant_id = -1);

  /// Spawns the sampling process (idempotent).
  void Start();

  /// Mean allocation over [t0, t1) seconds.
  ResourceVector MeanAllocated(double t0, double t1) const;

  /// RUC dollars for the window (step-integrated allocation x unit prices).
  CostBreakdown RucCost(double t0, double t1) const;

  /// Dollars under a vendor's actual pricing model (minimum billing windows
  /// applied to the whole window's mean allocation).
  CostBreakdown ActualCost(const ActualPricing& pricing, double t0,
                           double t1) const;

  /// RUC dollars attributed to one tenant over [t0, t1): the step integral
  /// of the tenant's sampled cost rate. Zero for ids no tagged source ever
  /// reported under (including -1 — untagged allocation is deployment
  /// overhead, not attributable).
  double TenantRucDollars(int tenant_id, double t0, double t1) const;

  /// Tenant ids with at least one attributed sample, ascending.
  std::vector<int> TenantIds() const;

  const util::TimeSeries& vcores_series() const { return vcores_; }
  const util::TimeSeries& memory_series() const { return memory_; }

  const PriceBook& prices() const { return prices_; }

 private:
  sim::Process SampleLoop();
  void SampleOnce();

  struct Source {
    std::function<ResourceVector()> fn;
    int tenant_id = -1;
  };

  sim::Environment* env_;
  PriceBook prices_;
  sim::SimTime interval_;
  bool started_ = false;
  std::vector<Source> sources_;
  /// Attributed cost rate per tenant in dollars/second at RUC prices —
  /// a rate series so the window integral is dollars directly. Ordered map
  /// keeps TenantIds() and any export iteration deterministic.
  std::map<int, util::TimeSeries> tenant_cost_rate_;

  util::TimeSeries vcores_;
  util::TimeSeries memory_;
  util::TimeSeries storage_;
  util::TimeSeries iops_;
  util::TimeSeries tcp_gbps_;
  util::TimeSeries rdma_gbps_;
};

}  // namespace cloudybench::cloud

#endif  // CLOUDYBENCH_CLOUD_METER_H_

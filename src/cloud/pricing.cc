#include "cloud/pricing.h"

#include <algorithm>

#include "util/logging.h"

namespace cloudybench::cloud {

CostBreakdown CostBreakdown::PerMinute(double window_seconds) const {
  CB_CHECK_GT(window_seconds, 0.0);
  double k = 60.0 / window_seconds;
  return CostBreakdown{cpu * k, memory * k, storage * k, iops * k,
                       network * k};
}

CostBreakdown PriceBook::CostPerHour(const ResourceVector& r) const {
  CostBreakdown c;
  c.cpu = r.vcores * cpu_vcore_hour;
  c.memory = r.memory_gb * memory_gb_hour;
  c.storage = r.storage_gb * storage_gb_hour;
  c.iops = r.iops / 100.0 * iops_100_hour;
  c.network = r.tcp_gbps * tcp_gbps_hour + r.rdma_gbps * rdma_gbps_hour;
  return c;
}

CostBreakdown PriceBook::CostPerMinute(const ResourceVector& r) const {
  return CostFor(r, 60.0);
}

CostBreakdown PriceBook::CostFor(const ResourceVector& r,
                                 double seconds) const {
  CostBreakdown hourly = CostPerHour(r);
  double k = seconds / 3600.0;
  return CostBreakdown{hourly.cpu * k, hourly.memory * k, hourly.storage * k,
                       hourly.iops * k, hourly.network * k};
}

CostBreakdown ActualPricing::CostFor(const ResourceVector& r,
                                     double seconds) const {
  double billed = std::max(seconds, min_billable_seconds);
  double k = billed / 3600.0;
  CostBreakdown c;
  c.cpu = r.vcores * vcore_hour * k;
  c.memory = r.memory_gb * memory_gb_hour * k;
  c.storage = r.storage_gb * storage_gb_hour * k;
  c.iops = r.iops / 100.0 * iops_100_hour * k;
  c.network = (r.tcp_gbps + r.rdma_gbps) * net_gbps_hour * k;
  return c;
}

}  // namespace cloudybench::cloud

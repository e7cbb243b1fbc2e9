#ifndef CLOUDYBENCH_CLOUD_PRICING_H_
#define CLOUDYBENCH_CLOUD_PRICING_H_

#include <string>

namespace cloudybench::cloud {

/// A bundle of allocated resources at an instant (or averaged over a
/// window). Network capacity is split by fabric because the paper's RUC
/// prices RDMA bandwidth at 3x TCP/IP (Table III).
struct ResourceVector {
  double vcores = 0;
  double memory_gb = 0;
  double storage_gb = 0;
  double iops = 0;            // provisioned IOPS
  double tcp_gbps = 0;
  double rdma_gbps = 0;

  ResourceVector& operator+=(const ResourceVector& o) {
    vcores += o.vcores;
    memory_gb += o.memory_gb;
    storage_gb += o.storage_gb;
    iops += o.iops;
    tcp_gbps += o.tcp_gbps;
    rdma_gbps += o.rdma_gbps;
    return *this;
  }
  friend ResourceVector operator+(ResourceVector a, const ResourceVector& b) {
    a += b;
    return a;
  }
  ResourceVector operator*(double k) const {
    return ResourceVector{vcores * k, memory_gb * k, storage_gb * k,
                          iops * k,   tcp_gbps * k,  rdma_gbps * k};
  }
};

/// Per-component dollar costs over some window, in the layout of the
/// paper's Table V.
struct CostBreakdown {
  double cpu = 0;
  double memory = 0;
  double storage = 0;
  double iops = 0;
  double network = 0;

  double total() const { return cpu + memory + storage + iops + network; }

  CostBreakdown& operator+=(const CostBreakdown& o) {
    cpu += o.cpu;
    memory += o.memory;
    storage += o.storage;
    iops += o.iops;
    network += o.network;
    return *this;
  }

  /// This cost, accrued over `window_seconds`, as dollars per minute (the
  /// unit of Table V and of the score formulas), component by component.
  CostBreakdown PerMinute(double window_seconds) const;
};

/// The paper's Resource Unit Cost model (§II-F, Table III): standard
/// per-hour unit prices that normalize cost across providers so
/// cost-efficiency can be compared on equal footing.
struct PriceBook {
  double cpu_vcore_hour = 0.1847;    // Aurora/PolarDB/HyperScale/Neon avg
  double memory_gb_hour = 0.0095;
  double storage_gb_hour = 0.000853;
  double iops_100_hour = 0.00015;    // AWS RDS IOPS pricing
  double tcp_gbps_hour = 0.07696;    // Huawei S1730S 10G reference
  double rdma_gbps_hour = 0.23088;   // Mellanox MSB7890 reference

  /// Dollar cost of holding `r` for one hour.
  CostBreakdown CostPerHour(const ResourceVector& r) const;
  /// Dollar cost of holding `r` for one minute (Table V's unit).
  CostBreakdown CostPerMinute(const ResourceVector& r) const;
  /// Dollar cost of holding `r` for `seconds`.
  CostBreakdown CostFor(const ResourceVector& r, double seconds) const;
};

/// A vendor's *actual* pricing model, used for the starred scores in
/// Table IX (P-Score*, E1-Score*, T-Score*, O-Score*). The paper shows the
/// actual-cost ranking diverges from the RUC ranking because of exactly
/// these quirks: per-vCore price differences (CDB3 is a cheap startup,
/// CDB2's pool vCores cost $0.42) and minimum billing windows (RDS bills at
/// least 10 minutes; CDB2's elastic pool at least an hour).
struct ActualPricing {
  std::string name;
  double vcore_hour = 0.2;
  double memory_gb_hour = 0.01;
  double storage_gb_hour = 0.001;
  double iops_100_hour = 0.00015;
  double net_gbps_hour = 0.08;
  /// The vendor never bills less than this many seconds of usage.
  double min_billable_seconds = 0;

  /// Cost of holding `r` for `seconds`, applying the minimum billing window.
  CostBreakdown CostFor(const ResourceVector& r, double seconds) const;
};

}  // namespace cloudybench::cloud

#endif  // CLOUDYBENCH_CLOUD_PRICING_H_

#ifndef CLOUDYBENCH_STORAGE_DISK_H_
#define CLOUDYBENCH_STORAGE_DISK_H_

#include <cstdint>
#include <string>

#include "sim/environment.h"
#include "sim/resource.h"
#include "sim/sim_time.h"
#include "sim/task.h"

namespace cloudybench::storage {

/// A block device (local NVMe, or one replica set of a cloud storage
/// service) with a provisioned IOPS budget and fixed access latencies.
///
/// Each call costs one I/O token per 256 KiB (minimum one) against the IOPS
/// RateResource, plus the device latency. Provisioned IOPS is also what the
/// price book bills (paper Table III: $0.00015 per 100 IOPS-hour).
class DiskDevice {
 public:
  struct Config {
    std::string name;
    double provisioned_iops = 1000;
    sim::SimTime read_latency = sim::Micros(100);   // NVMe-class default
    sim::SimTime write_latency = sim::Micros(150);
  };

  DiskDevice(sim::Environment* env, Config config);

  DiskDevice(const DiskDevice&) = delete;
  DiskDevice& operator=(const DiskDevice&) = delete;

  sim::Task<void> Read(int64_t bytes);
  sim::Task<void> Write(int64_t bytes);

  double provisioned_iops() const { return provisioned_iops_; }

  // ---- fault hooks (src/fault) ----
  /// Fail-slow degradation: effective IOPS drop to provisioned/`iops_div`
  /// and access latencies are multiplied by `latency_mult` (both >= 1).
  /// Billing keeps seeing the provisioned figure — a gray-failing disk is
  /// the same SKU, just slower.
  void SetFailSlow(double iops_div, double latency_mult);
  void ClearFailSlow() { SetFailSlow(1.0, 1.0); }
  bool fail_slow() const {
    return fail_iops_div_ != 1.0 || fail_latency_mult_ != 1.0;
  }

  /// Deterministic completion estimates for an I/O issued now (IOPS
  /// virtual-queue wait + degraded device latency) — the fetch-deadline
  /// inputs for graceful degradation.
  sim::SimTime EstimatedReadDelay(int64_t bytes) const {
    return iops_.EstimatedWait(TokensFor(bytes)) +
           config_.read_latency * fail_latency_mult_;
  }
  sim::SimTime EstimatedWriteDelay(int64_t bytes) const {
    return iops_.EstimatedWait(TokensFor(bytes)) +
           config_.write_latency * fail_latency_mult_;
  }

  int64_t reads() const { return reads_; }
  int64_t writes() const { return writes_; }
  /// Total I/O tokens consumed — used by the meter for utilization.
  double io_consumed() const { return iops_.consumed(); }
  bool backlogged() const { return iops_.backlogged(); }

  const Config& config() const { return config_; }

 private:
  static double TokensFor(int64_t bytes);

  sim::Environment* env_;
  Config config_;
  sim::RateResource iops_;
  double provisioned_iops_;
  double fail_iops_div_ = 1.0;
  double fail_latency_mult_ = 1.0;
  int64_t reads_ = 0;
  int64_t writes_ = 0;
};

}  // namespace cloudybench::storage

#endif  // CLOUDYBENCH_STORAGE_DISK_H_

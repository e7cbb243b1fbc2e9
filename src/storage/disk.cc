#include "storage/disk.h"

#include <algorithm>
#include <cmath>

namespace cloudybench::storage {

DiskDevice::DiskDevice(sim::Environment* env, Config config)
    : env_(env),
      config_(std::move(config)),
      iops_(env, config_.provisioned_iops),
      provisioned_iops_(config_.provisioned_iops) {}

double DiskDevice::TokensFor(int64_t bytes) {
  constexpr double kBytesPerIo = 256.0 * 1024.0;
  return std::max(1.0, std::ceil(static_cast<double>(bytes) / kBytesPerIo));
}

sim::Task<void> DiskDevice::Read(int64_t bytes) {
  ++reads_;
  co_await iops_.Acquire(TokensFor(bytes));
  co_await env_->Delay(config_.read_latency * fail_latency_mult_);
}

sim::Task<void> DiskDevice::Write(int64_t bytes) {
  ++writes_;
  co_await iops_.Acquire(TokensFor(bytes));
  co_await env_->Delay(config_.write_latency * fail_latency_mult_);
}

void DiskDevice::SetFailSlow(double iops_div, double latency_mult) {
  CB_CHECK_GE(iops_div, 1.0);
  CB_CHECK_GE(latency_mult, 1.0);
  fail_iops_div_ = iops_div;
  fail_latency_mult_ = latency_mult;
  iops_.SetRate(provisioned_iops_ / fail_iops_div_);
}

}  // namespace cloudybench::storage

#ifndef CLOUDYBENCH_NET_NETWORK_H_
#define CLOUDYBENCH_NET_NETWORK_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "sim/environment.h"
#include "sim/resource.h"
#include "sim/sim_time.h"
#include "sim/task.h"

namespace cloudybench::net {

/// Which fabric a link runs on. Pricing differs (paper Table III: RDMA
/// bandwidth costs 3x TCP/IP) and so do latencies.
enum class Fabric { kTcpIp, kRdma };

const char* FabricName(Fabric fabric);

struct LinkConfig {
  std::string name;
  Fabric fabric = Fabric::kTcpIp;
  /// Provisioned bandwidth; also the capacity billed by the price book.
  double bandwidth_gbps = 10.0;
  /// One-way propagation + stack latency per message.
  sim::SimTime latency = sim::Micros(50);

  /// Paper Table IV fabrics: 10 Gbps TCP/IP for RDS/CDB1/CDB2/CDB3 and
  /// 10 Gbps RDMA for CDB4 (≈25x lower latency; kernel-bypass).
  static LinkConfig Tcp10G(std::string name);
  static LinkConfig Rdma10G(std::string name);
};

/// A simulated point-to-point link: messages queue on a bandwidth
/// RateResource (bytes/second) and then pay the propagation latency.
/// Transfers of concurrent senders serialize deterministically FIFO.
class Link {
 public:
  Link(sim::Environment* env, LinkConfig config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Delivers `bytes` across the link; resumes when the last byte arrives.
  sim::Task<void> Transfer(int64_t bytes);

  /// Batched-sender path: reserves bandwidth for one message at the current
  /// instant on the same FIFO virtual queue as Transfer(), but returns the
  /// arrival instant instead of suspending until it. The caller delivers the
  /// payload at the returned time (the replication ship loop reserves a
  /// whole flush batch this way without spawning a coroutine per record).
  /// Counts the message and records the "link.transfer" span with its true
  /// [reserve, arrival] simulated extent. Returns false, touching nothing,
  /// when the link is blackholed. Degradation applies to future
  /// reservations, per SetDegraded's contract.
  bool TryReserveTransfer(int64_t bytes, sim::SimTime* arrive);

  /// TryReserveTransfer that parks while the link is blackholed and
  /// reserves once the fault clears; callers take it on a `false`.
  sim::Task<sim::SimTime> ReserveTransfer(int64_t bytes);

  const LinkConfig& config() const { return config_; }
  double bandwidth_gbps() const { return config_.bandwidth_gbps; }
  Fabric fabric() const { return config_.fabric; }

  int64_t bytes_transferred() const { return bytes_transferred_; }
  int64_t messages() const { return messages_; }

  // ---- fault hooks (src/fault) ----
  /// Degrades the link: propagation latency is multiplied by `latency_mult`
  /// and bandwidth scaled to nominal/`bandwidth_div` (both >= 1; applies to
  /// future reservations — in-flight transfers keep their grant).
  void SetDegraded(double latency_mult, double bandwidth_div);
  /// Blackhole: transfers park on a waiter queue and deliver nothing until
  /// the blackhole clears (partition / switch brownout).
  void SetBlackhole(bool on);
  /// Restores nominal latency, bandwidth and blackhole state.
  void ClearFaults();
  bool degraded() const {
    return latency_mult_ != 1.0 || bandwidth_div_ != 1.0;
  }
  bool blackholed() const { return blackhole_; }

  /// Deterministic completion estimate for a Transfer(bytes) issued now:
  /// bandwidth virtual-queue wait plus propagation latency. Returns
  /// kUnreachable while blackholed, so deadline-based callers fail fast
  /// instead of parking forever.
  sim::SimTime EstimatedTransferDelay(int64_t bytes) const;
  static constexpr sim::SimTime kUnreachable{int64_t{1} << 60};

  /// Mean utilization over [t0, t1) against provisioned bandwidth; requires
  /// callers to snapshot bytes_transferred() (the meter does).
  static double Gbps(int64_t bytes, double seconds) {
    if (seconds <= 0) return 0.0;
    return static_cast<double>(bytes) * 8.0 / 1e9 / seconds;
  }

 private:
  /// Lazily allocates this link's trace track ("link/<name>" lane in the
  /// Chrome trace). Epoch-guarded: links outlive TraceRecorder::Clear(), so
  /// a stale track id must be re-allocated rather than reused.
  uint64_t TraceTrack();

  /// Nominal bytes/second from the config (SetDegraded divides this).
  double NominalRate() const { return config_.bandwidth_gbps * 1e9 / 8.0; }

  sim::Environment* env_;
  obs::TraceRecorder* recorder_;  // this thread's, resolved once
  LinkConfig config_;
  sim::RateResource bandwidth_;  // bytes per second
  int64_t bytes_transferred_ = 0;
  int64_t messages_ = 0;
  // Fault state; all 1.0/false/empty in a healthy link, and the hot path
  // only pays one multiply and one branch for them.
  double latency_mult_ = 1.0;
  double bandwidth_div_ = 1.0;
  bool blackhole_ = false;
  std::vector<sim::Waiter*> blackholed_waiters_;
  uint64_t trace_track_ = 0;
  uint64_t trace_epoch_ = 0;
};

}  // namespace cloudybench::net

#endif  // CLOUDYBENCH_NET_NETWORK_H_

#include "net/network.h"

namespace cloudybench::net {

const char* FabricName(Fabric fabric) {
  switch (fabric) {
    case Fabric::kTcpIp:
      return "TCP/IP";
    case Fabric::kRdma:
      return "RDMA";
  }
  return "?";
}

LinkConfig LinkConfig::Tcp10G(std::string name) {
  LinkConfig c;
  c.name = std::move(name);
  c.fabric = Fabric::kTcpIp;
  c.bandwidth_gbps = 10.0;
  c.latency = sim::Micros(50);  // kernel TCP stack within one VPC
  return c;
}

LinkConfig LinkConfig::Rdma10G(std::string name) {
  LinkConfig c;
  c.name = std::move(name);
  c.fabric = Fabric::kRdma;
  c.bandwidth_gbps = 10.0;
  c.latency = sim::Micros(2);  // kernel-bypass one-sided verbs
  return c;
}

Link::Link(sim::Environment* env, LinkConfig config)
    : env_(env),
      recorder_(&obs::TraceRecorder::Get()),
      config_(std::move(config)),
      bandwidth_(env, config_.bandwidth_gbps * 1e9 / 8.0) {
  CB_CHECK_GT(config_.bandwidth_gbps, 0.0);
}

uint64_t Link::TraceTrack() {
  if (!recorder_->enabled()) return 0;
  if (trace_track_ == 0 || trace_epoch_ != recorder_->epoch()) {
    trace_track_ = recorder_->NewTrack();
    trace_epoch_ = recorder_->epoch();
    recorder_->SetTrackName(trace_track_, "link/" + config_.name);
  }
  return trace_track_;
}

sim::Task<void> Link::Transfer(int64_t bytes) {
  CB_CHECK_GE(bytes, 0);
  bytes_transferred_ += bytes;
  ++messages_;
  obs::CachedSpanScope net_span(recorder_, env_, TraceTrack(),
                                obs::Layer::kNet, "link.transfer");
  // Blackholed senders park until the fault clears; the resumed coroutine
  // re-checks because a second blackhole window may have opened meanwhile.
  while (blackhole_) {
    sim::Waiter gate(env_);
    blackholed_waiters_.push_back(&gate);
    co_await gate;
  }
  co_await bandwidth_.Acquire(static_cast<double>(bytes));
  co_await env_->Delay(config_.latency * latency_mult_);
}

sim::Task<sim::SimTime> Link::ReserveTransfer(int64_t bytes) {
  // Blackholed senders park until the fault clears and re-check, as in
  // Transfer(), since a second blackhole window may have opened meanwhile.
  sim::SimTime arrive;
  while (!TryReserveTransfer(bytes, &arrive)) {
    sim::Waiter gate(env_);
    blackholed_waiters_.push_back(&gate);
    co_await gate;
  }
  co_return arrive;
}

bool Link::TryReserveTransfer(int64_t bytes, sim::SimTime* arrive) {
  CB_CHECK_GE(bytes, 0);
  if (blackhole_) return false;
  bytes_transferred_ += bytes;
  ++messages_;
  *arrive = bandwidth_.Reserve(static_cast<double>(bytes)) +
            config_.latency * latency_mult_;
  if (recorder_->enabled()) {
    obs::SpanHandle span = recorder_->Begin(TraceTrack(), obs::Layer::kNet,
                                            "link.transfer", env_->Now());
    recorder_->End(span, *arrive);
  }
  return true;
}

void Link::SetDegraded(double latency_mult, double bandwidth_div) {
  CB_CHECK_GE(latency_mult, 1.0);
  CB_CHECK_GE(bandwidth_div, 1.0);
  latency_mult_ = latency_mult;
  bandwidth_div_ = bandwidth_div;
  bandwidth_.SetRate(NominalRate() / bandwidth_div_);
}

void Link::SetBlackhole(bool on) {
  blackhole_ = on;
  if (!on) {
    // Completing a waiter resumes its transfer at the current instant; swap
    // first because resumed senders can re-park if a new window opens.
    std::vector<sim::Waiter*> parked;
    parked.swap(blackholed_waiters_);
    for (sim::Waiter* w : parked) w->Complete(0);
  }
}

void Link::ClearFaults() {
  latency_mult_ = 1.0;
  bandwidth_div_ = 1.0;
  bandwidth_.SetRate(NominalRate());
  SetBlackhole(false);
}

sim::SimTime Link::EstimatedTransferDelay(int64_t bytes) const {
  if (blackhole_) return kUnreachable;
  return bandwidth_.EstimatedWait(static_cast<double>(bytes)) +
         config_.latency * latency_mult_;
}

}  // namespace cloudybench::net

#include "sim/resource.h"

#include <algorithm>

namespace cloudybench::sim {

namespace {
int SlotsForCapacity(double capacity) {
  if (capacity <= 0.0) return 0;
  return static_cast<int>(std::ceil(capacity - 1e-9));
}
}  // namespace

SlotResource::SlotResource(Environment* env, double capacity)
    : env_(env) {
  CB_CHECK(env != nullptr);
  SetCapacity(capacity);
}

double SlotResource::speed() const {
  CB_CHECK_GT(slots_, 0);
  return speed_;
}

void SlotResource::SetCapacity(double capacity) {
  CB_CHECK_GE(capacity, 0.0);
  capacity_ = capacity;
  slots_ = SlotsForCapacity(capacity);
  if (slots_ > 0) speed_ = capacity_ / static_cast<double>(slots_);
  GrantWaiters();
}

void SlotResource::GrantWaiters() {
  while (!waiting_.empty() && active_ < slots_) {
    std::coroutine_handle<> h = waiting_.front();
    waiting_.pop_front();
    ++active_;
    env_->ScheduleHandle(env_->Now(), h);
  }
}

void SlotResource::Release() {
  CB_CHECK_GT(active_, 0);
  --active_;
  GrantWaiters();
}

Task<void> SlotResource::ConsumeQueued(SimTime demand) {
  co_await Acquire();
  co_await env_->Delay(ServiceTime(demand));
  busy_core_seconds_ += demand.ToSeconds();
  Release();
}

void SlotResource::FinishConsume(void* self, int64_t demand_us) {
  auto* r = static_cast<SlotResource*>(self);
  r->busy_core_seconds_ += SimTime{demand_us}.ToSeconds();
  r->Release();
}

RateResource::RateResource(Environment* env, double rate_per_second)
    : env_(env), rate_(rate_per_second) {
  CB_CHECK(env != nullptr);
  CB_CHECK_GT(rate_per_second, 0.0);
}

void RateResource::SetRate(double rate_per_second) {
  CB_CHECK_GT(rate_per_second, 0.0);
  rate_ = rate_per_second;
}

Task<void> RateResource::Acquire(double units) {
  SimTime now = env_->Now();
  SimTime done = Reserve(units);
  if (done > now) {
    co_await env_->Delay(done - now);
  }
}

}  // namespace cloudybench::sim

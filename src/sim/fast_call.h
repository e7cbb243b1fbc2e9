#ifndef CLOUDYBENCH_SIM_FAST_CALL_H_
#define CLOUDYBENCH_SIM_FAST_CALL_H_

#include <coroutine>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "sim/environment.h"
#include "sim/sim_time.h"
#include "sim/task.h"

namespace cloudybench::sim {

/// The return type of a hot-path call whose outcome is usually known at the
/// call (DESIGN.md §4k). Awaiting it takes one of three shapes:
///
///  * finished now: the call already made its state changes and holds its
///    value, and co_await does not suspend;
///  * one scheduled resume: the awaiting coroutine is resumed at a fixed
///    instant, and an optional finish hook runs first thing on that resume
///    (SlotResource::Consume releases its slot there);
///  * a Task to run: the slow case. co_await starts the task inline,
///    exactly as `co_await task` would.
///
/// The first two create no coroutine frame. Call sites stay
/// `co_await x->F(...)`.
///
/// Contract: the fast outcomes act *at the call* rather than at the
/// co_await. Every call site awaits the result in the expression that makes
/// the call, so both are the same point of the same dispatch step, and a
/// fast outcome makes the same state changes and schedules the same event
/// with the same (at_us, seq) as the coroutine it replaces. A FastCall must
/// therefore always be awaited; dropping one unawaited may leave a granted
/// resource held.
template <typename T>
class [[nodiscard]] FastCall {
  struct Nothing {};
  using Value = std::conditional_t<std::is_void_v<T>, Nothing, T>;

 public:
  /// Runs on a scheduled resume, before the awaiter returns its value.
  using Finish = void (*)(void* ctx, int64_t arg);

  /// Finished now (FastCall<void>).
  FastCall() noexcept
    requires std::is_void_v<T>
  {}
  /// Finished now with `value`.
  FastCall(Value value)  // NOLINT(google-explicit-constructor)
    requires(!std::is_void_v<T>)
      : value_(std::move(value)) {}
  /// The slow case: co_await runs `task` inline.
  FastCall(Task<T> task)  // NOLINT(google-explicit-constructor)
      : task_(std::move(task)), kind_(Kind::kTask) {}

  /// One scheduled resume at `at` (>= Now()), on the awaiting coroutine's
  /// environment. `finish(ctx, arg)`, when set, runs on that resume.
  static FastCall ResumeAt(SimTime at, Finish finish = nullptr,
                           void* ctx = nullptr, int64_t arg = 0) {
    FastCall call(Kind::kResume);
    call.at_us_ = at.us;
    call.finish_ = finish;
    call.ctx_ = ctx;
    call.arg_ = arg;
    return call;
  }

  FastCall(FastCall&&) noexcept = default;
  FastCall& operator=(FastCall&&) noexcept = default;
  FastCall(const FastCall&) = delete;
  FastCall& operator=(const FastCall&) = delete;

  /// True when the call finished at the call site; await_resume() then
  /// hands over its value without suspending.
  bool ready() const noexcept { return kind_ == Kind::kReady; }

  bool await_ready() const noexcept { return kind_ == Kind::kReady; }

  template <typename ParentPromise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<ParentPromise> parent) noexcept {
    if (kind_ == Kind::kTask) return task_.await_suspend(parent);
    auto& base = static_cast<internal_task::PromiseBase&>(parent.promise());
    base.env->ScheduleHandle(SimTime{at_us_}, parent);
    return std::noop_coroutine();
  }

  T await_resume() {
    if (kind_ == Kind::kTask) return task_.await_resume();
    if (finish_ != nullptr) finish_(ctx_, arg_);
    if constexpr (!std::is_void_v<T>) return std::move(value_);
  }

 private:
  enum class Kind : uint8_t { kReady, kResume, kTask };

  explicit FastCall(Kind kind) : kind_(kind) {}

  // What a ready or resumed call returns; the empty member costs nothing
  // for FastCall<void>.
  [[no_unique_address]] Value value_{};
  Task<T> task_{};
  Kind kind_ = Kind::kReady;
  int64_t at_us_ = 0;
  Finish finish_ = nullptr;
  void* ctx_ = nullptr;
  int64_t arg_ = 0;
};

}  // namespace cloudybench::sim

#endif  // CLOUDYBENCH_SIM_FAST_CALL_H_

#ifndef CLOUDYBENCH_SIM_TASK_H_
#define CLOUDYBENCH_SIM_TASK_H_

#include <coroutine>
#include <cstdint>
#include <exception>
#include <utility>

#include "sim/pool.h"
#include "sim/sim_time.h"
#include "util/logging.h"

namespace cloudybench::sim {

class Environment;
template <typename T>
class FastCall;

namespace internal_task {

/// Shims defined in environment.cc so this header does not need the full
/// Environment definition (Environment itself includes this header).
void ScheduleHandleAt(Environment* env, SimTime at, std::coroutine_handle<> h);
SimTime EnvNow(Environment* env);
void NotifyDetachedFinished(Environment* env, std::coroutine_handle<> h,
                            uint32_t live_index);

struct PromiseBase {
  /// Coroutine frames come off the thread-local FrameArena: promise_type
  /// inherits these, so every Task<T>/Process frame is a size-class bucket
  /// pop in steady state instead of a global-allocator round trip.
  static void* operator new(size_t bytes) { return FrameArena::Allocate(bytes); }
  static void operator delete(void* p) noexcept { FrameArena::Deallocate(p); }
  static void operator delete(void* p, size_t) noexcept {
    FrameArena::Deallocate(p);
  }

  Environment* env = nullptr;
  /// Parent coroutine awaiting this task inline (call semantics).
  std::coroutine_handle<> continuation;
  /// Set when spawned detached via Environment::Spawn.
  bool detached = false;
  /// Slot in the environment's detached-live vector; maintained by
  /// swap-remove so Spawn/finish bookkeeping never hashes or allocates.
  uint32_t live_index = 0;
};

/// The part of a promise that depends on T: how a value is returned and
/// handed to the awaiting parent.
template <typename T>
struct ValuePromise : PromiseBase {
  T value{};
  void return_value(T v) { value = std::move(v); }
  T TakeValue() { return std::move(value); }
};

template <>
struct ValuePromise<void> : PromiseBase {
  void return_void() {}
  void TakeValue() {}
};

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }

  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    auto& p = static_cast<PromiseBase&>(h.promise());
    if (p.continuation) {
      // Inline call: transfer control back to the awaiting parent at the
      // same simulated instant.
      return p.continuation;
    }
    if (p.detached) {
      // Detached process: the environment reclaims the frame after the
      // current dispatch step.
      NotifyDetachedFinished(p.env, h, p.live_index);
    }
    return std::noop_coroutine();
  }

  void await_resume() const noexcept {}
};

}  // namespace internal_task

/// A simulation coroutine. Two usage modes:
///
///  1. Inline call (synchronous in simulated time):
///        Task<TxnResult> Execute(...);
///        TxnResult r = co_await Execute(...);
///     The child starts immediately and the parent resumes (via symmetric
///     transfer) the instant the child finishes. The awaiting expression
///     owns the child frame.
///
///  2. Detached process (fire-and-forget):
///        env.Spawn(WorkerLoop(...));
///     The environment owns the frame and reclaims it on completion (or at
///     environment teardown for processes that never finish). A process
///     reports its outcome through state it was given, not through a handle.
///
/// Tasks never started are destroyed cleanly by ~Task. Exceptions are not
/// used in this codebase; an escaping exception terminates.
template <typename T>
class [[nodiscard]] Task {
 public:
  struct promise_type : internal_task::ValuePromise<T> {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    internal_task::FinalAwaiter final_suspend() noexcept { return {}; }
    void unhandled_exception() { std::terminate(); }
  };

  Task(Task&& o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}
  Task& operator=(Task&& o) noexcept {
    if (this != &o) {
      DestroyIfOwned();
      handle_ = std::exchange(o.handle_, nullptr);
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { DestroyIfOwned(); }

  /// Awaiting a Task starts it inline under the parent's environment.
  bool await_ready() const noexcept { return false; }

  template <typename ParentPromise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<ParentPromise> parent) noexcept {
    auto& parent_base =
        static_cast<internal_task::PromiseBase&>(parent.promise());
    CB_CHECK(parent_base.env != nullptr)
        << "awaiting a Task from a coroutine with no environment";
    handle_.promise().env = parent_base.env;
    handle_.promise().continuation = parent;
    return handle_;
  }

  T await_resume() { return handle_.promise().TakeValue(); }

 private:
  friend class Environment;
  // A FastCall holds an empty Task unless its outcome is the slow path.
  template <typename>
  friend class FastCall;
  Task() = default;
  explicit Task(std::coroutine_handle<promise_type> h) : handle_(h) {}

  std::coroutine_handle<promise_type> Release() {
    return std::exchange(handle_, nullptr);
  }
  void DestroyIfOwned() {
    if (handle_) {
      handle_.destroy();
      handle_ = nullptr;
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Process is the conventional name for a detachable Task<void>.
using Process = Task<void>;

/// Single-shot completion slot: one coroutine awaits, any other code
/// completes it with an integer code (lock grant, message arrival, ...).
/// The completer must guarantee the Waiter outlives the completion call;
/// in CloudyBench that is enforced by always removing the Waiter from the
/// owner's queue in the same step that completes it.
class Waiter {
 public:
  explicit Waiter(Environment* env) : env_(env) {}

  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;

  bool completed() const { return completed_; }
  int code() const { return code_; }

  /// First completion wins; later calls are ignored.
  void Complete(int code) {
    if (completed_) return;
    completed_ = true;
    code_ = code;
    if (suspended_) {
      internal_task::ScheduleHandleAt(env_, internal_task::EnvNow(env_),
                                      suspended_);
      suspended_ = nullptr;
    }
  }

  auto operator co_await() {
    struct Awaiter {
      Waiter* w;
      bool await_ready() const noexcept { return w->completed_; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        w->suspended_ = h;
      }
      int await_resume() const noexcept { return w->code_; }
    };
    return Awaiter{this};
  }

 private:
  Environment* env_;
  bool completed_ = false;
  int code_ = 0;
  std::coroutine_handle<> suspended_;
};

}  // namespace cloudybench::sim

#endif  // CLOUDYBENCH_SIM_TASK_H_

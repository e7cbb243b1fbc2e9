#ifndef CLOUDYBENCH_SIM_EVENT_HEAP_H_
#define CLOUDYBENCH_SIM_EVENT_HEAP_H_

#include <algorithm>
#include <array>
#include <bit>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

namespace cloudybench::sim {

/// One scheduled DES event, kept deliberately POD-sized (32 bytes) so queue
/// moves are plain memory copies. The total order is (at_us, seq); `seq` is
/// unique per environment, so the order is total and dispatch is
/// deterministic regardless of the container's internal layout.
///
/// Exactly one of the two payloads is active: a coroutine handle (the common
/// case — timer expiry, resource grant, join wakeup) or, when `handle` is
/// null, an index into the environment's CallSlab holding a rare
/// ScheduleCall closure. Keeping closures out of the event itself is what
/// lets the queue move raw PODs instead of `std::function`s.
struct Event {
  int64_t at_us = 0;
  uint64_t seq = 0;
  std::coroutine_handle<> handle;
  uint32_t fn_slot = 0;
};

/// Monotone radix queue over Events, keyed on `at_us` with `seq` breaking
/// ties.
///
/// Monotonicity: every pushed key is strictly greater than `base_`, the key
/// of the last refill. The environment guarantees it — the queue only ever
/// sees events later than `Now()`, and `Now()` never falls below a key the
/// queue has handed out. Under that invariant an event's bucket is a pure
/// function of its key and `base_`: bucket b > 0 holds the keys whose
/// highest bit differing from `base_` is bit b-1, and bucket 0 holds the
/// events at `base_` itself.
///
/// Pop takes bucket 0 front to back. When bucket 0 is empty, a refill takes
/// the lowest non-empty bucket, moves `base_` to its smallest key and
/// redistributes its events into strictly lower buckets (keys above the
/// new base share more high bits with it), so each event moves down at
/// most 64 times over its life. A push is one append to a bucket tail and
/// a refill one sequential pass over a bucket, instead of a heap's
/// data-dependent sift through lines the coroutine bodies have just
/// evicted.
///
/// Seq order within a key: every bucket is always in seq order. Pushes
/// append the largest seq yet, and a refill moves the events of one
/// in-order bucket, in order, into buckets that were empty (it is the
/// lowest non-empty one). So bucket 0 needs no sort, and the pop sequence
/// is exactly the (at_us, seq) order of any other correct priority queue.
///
/// Refills happen only inside PopNext, i.e. only when the event is about to
/// be dispatched. A peek that moved `base_` past `Now()` would break the
/// invariant for events pushed afterwards at a time between the two.
///
/// Storage: one vector per bucket, cleared but never shrunk, so steady
/// state allocates nothing. A bucket's first append reserves a ~2 KiB
/// block instead of growing from one element: a fresh environment's deploy
/// pushes its first events into a dozen or so empty buckets, and growing
/// each by doubling from one element slowed e2ebench's open_sf10_ro
/// deploys (`setup_s`) by 12-22% (docs/PERF.md "DES event queue").
class EventQueue {
 public:
  size_t size() const { return size_; }

  /// Requires e.at_us > the key of every event popped so far.
  void Push(const Event& e) {
    int b = BucketOf(e.at_us);
    Append(b, e);
    occupied_ |= uint64_t{1} << (b - 1);
    ++size_;
  }

  /// Pops the next event at the current base key, if any. While bucket 0
  /// holds events the base is the environment's `Now()`.
  bool PopBase(Event* out) {
    std::vector<Event>& base = buckets_[0];
    if (base_head_ == base.size()) return false;
    *out = base[base_head_++];
    if (base_head_ == base.size()) {
      base.clear();
      base_head_ = 0;
    }
    --size_;
    return true;
  }

  /// Pops the minimum event if its key is <= `limit`, refilling bucket 0
  /// from the lowest non-empty bucket first. Leaves the queue untouched and
  /// returns false when the queue is empty or every key is above `limit`.
  bool PopNext(int64_t limit, Event* out) {
    if (PopBase(out)) return true;
    return Refill(limit) && PopBase(out);
  }

 private:
  static constexpr size_t kFirstReserve = 64;  // events: 2 KiB

  int BucketOf(int64_t at_us) const {
    return std::bit_width(static_cast<uint64_t>(at_us) ^ base_);
  }

  void Append(int b, const Event& e) {
    std::vector<Event>& bucket = buckets_[b];
    if (bucket.capacity() == 0) bucket.reserve(kFirstReserve);
    bucket.push_back(e);
  }

  // Out of line so the same-tick fast paths of Environment::StepUntil stay
  // small enough to inline into every dispatch loop.
  [[gnu::noinline]] bool Refill(int64_t limit) {
    if (occupied_ == 0) return false;
    int b = std::countr_zero(occupied_) + 1;
    std::vector<Event>& src = buckets_[b];
    int64_t min_at = src.front().at_us;
    for (const Event& e : src) min_at = std::min(min_at, e.at_us);
    if (min_at > limit) return false;
    base_ = static_cast<uint64_t>(min_at);
    for (const Event& e : src) {
      int nb = BucketOf(e.at_us);
      Append(nb, e);
      if (nb > 0) occupied_ |= uint64_t{1} << (nb - 1);
    }
    src.clear();
    occupied_ &= ~(uint64_t{1} << (b - 1));
    return true;
  }

  uint64_t base_ = 0;
  size_t size_ = 0;
  size_t base_head_ = 0;  ///< next unpopped event in bucket 0
  uint64_t occupied_ = 0;  ///< bit b-1 set iff bucket b > 0 is non-empty
  std::array<std::vector<Event>, 65> buckets_;
};

/// Recycling slab for the rare ScheduleCall closures. Slots are reused via
/// a free list, so steady-state scheduling of control actions (failure
/// injection, timeouts) allocates nothing once the slab has warmed up.
///
/// Ownership contract: a closure put in the slab is destroyed exactly once —
/// either by Take() (dispatch moves it out and the moved-to local dies after
/// the call) or by the slab's destructor for calls still pending at
/// environment teardown. tests/sim_test.cc pins this down.
class CallSlab {
 public:
  uint32_t Put(std::function<void()> fn) {
    uint32_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
      slots_[idx] = std::move(fn);
    } else {
      idx = static_cast<uint32_t>(slots_.size());
      slots_.push_back(std::move(fn));
    }
    return idx;
  }

  /// Moves the closure out and recycles the slot. The slot is emptied
  /// eagerly so the closure's captures die with the returned object, not at
  /// some later Put() into the same slot.
  std::function<void()> Take(uint32_t idx) {
    std::function<void()> fn = std::move(slots_[idx]);
    slots_[idx] = nullptr;
    free_.push_back(idx);
    return fn;
  }

  size_t live() const { return slots_.size() - free_.size(); }

 private:
  std::vector<std::function<void()>> slots_;
  std::vector<uint32_t> free_;
};

}  // namespace cloudybench::sim

#endif  // CLOUDYBENCH_SIM_EVENT_HEAP_H_

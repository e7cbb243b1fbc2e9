#ifndef CLOUDYBENCH_SIM_POOL_H_
#define CLOUDYBENCH_SIM_POOL_H_

#include <cstddef>
#include <new>
#include <vector>

namespace cloudybench::sim {

/// Thread-local size-bucketed free lists for coroutine frames.
///
/// Every Task<T>/Process promise inherits an operator new/delete pair that
/// routes frame allocation here (see task.h). Frame sizes are
/// compiler-chosen and vary per coroutine, so the arena buckets by size:
/// requests are rounded up to 64-byte classes and each class keeps its own
/// stack of recycled blocks. Steady-state txn traffic re-runs the same
/// coroutines, so after warm-up every frame allocation is a bucket pop.
///
/// Frames above kMaxBlockBytes (rare: deep single-frame coroutines) fall
/// through to the global allocator. The rounded size is stored in a header
/// ahead of the frame so deallocate can find the bucket without being told
/// the size (operator delete does receive it, but the header keeps the
/// round-trip self-describing and lets the fall-through path coexist).
class FrameArena {
 public:
  static constexpr size_t kAlign = 2 * sizeof(void*);
  static constexpr size_t kClassBytes = 64;
  static constexpr size_t kMaxBlockBytes = 8192;
  static constexpr size_t kNumClasses = kMaxBlockBytes / kClassBytes;

  static void* Allocate(size_t bytes) {
    size_t total = Header::kBytes + bytes;
    if (total > kMaxBlockBytes) {
      Header* h = static_cast<Header*>(::operator new(total));
      h->size_class = kOversize;
      return h->Payload();
    }
    size_t cls = (total + kClassBytes - 1) / kClassBytes;
    Lists& lists = List();
    auto& bucket = lists.buckets[cls - 1];
    Header* h;
    if (!bucket.empty()) {
      h = static_cast<Header*>(bucket.back());
      bucket.pop_back();
      ++lists.stats.reused;
    } else {
      h = static_cast<Header*>(::operator new(cls * kClassBytes));
      ++lists.stats.fresh;
    }
    h->size_class = cls;
    return h->Payload();
  }

  static void Deallocate(void* p) noexcept {
    Header* h = Header::FromPayload(p);
    if (h->size_class == kOversize) {
      ::operator delete(h);
      return;
    }
    Lists& lists = List();
    lists.buckets[h->size_class - 1].push_back(h);
    ++lists.stats.recycled;
  }

  struct Stats {
    size_t fresh = 0;     // bucket miss -> operator new
    size_t reused = 0;    // bucket hit
    size_t recycled = 0;  // blocks returned to a bucket
  };

  /// This thread's counters; tests assert steady-state reuse with these.
  static Stats ThreadStats() { return List().stats; }

 private:
  static constexpr size_t kOversize = 0;

  struct Header {
    size_t size_class;
    // Payload must stay suitably aligned for any coroutine frame.
    static constexpr size_t kBytes =
        (sizeof(size_t) + kAlign - 1) / kAlign * kAlign;
    void* Payload() { return reinterpret_cast<char*>(this) + kBytes; }
    static Header* FromPayload(void* p) {
      return reinterpret_cast<Header*>(static_cast<char*>(p) - kBytes);
    }
  };

  struct Lists {
    std::vector<void*> buckets[kNumClasses];
    Stats stats;
    ~Lists() {
      for (auto& bucket : buckets)
        for (void* p : bucket) ::operator delete(p);
    }
  };

  static Lists& List() {
    thread_local Lists lists;
    return lists;
  }
};

}  // namespace cloudybench::sim

#endif  // CLOUDYBENCH_SIM_POOL_H_

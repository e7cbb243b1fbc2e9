#ifndef CLOUDYBENCH_UTIL_FLAT_HASH_H_
#define CLOUDYBENCH_UTIL_FLAT_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace cloudybench::util {

/// std::vector allocator that requests transparent huge pages for large
/// slabs. A multi-megabyte open-addressing table probed at random misses
/// the TLB on essentially every access with 4 KiB pages — the page walk
/// stacks on top of the DRAM miss. Slabs of 2 MiB and up are mapped here,
/// not taken from malloc: a 2 MiB-aligned anonymous mmap, rounded up to
/// whole huge pages, with madvise(MADV_HUGEPAGE) (the default THP policy on
/// most distros is `madvise`, so without the hint large allocations stay on
/// small pages), and munmap on free. Mapping them ourselves also keeps
/// peak RSS independent of heap layout: glibc serves big blocks with mmap
/// too, but raises its mmap threshold each time one is freed, so the next
/// slabs of a growing table (1.8 -> 4 -> 8 MiB in every cell) would land
/// in the brk heap and stay resident after they are freed. Small slabs
/// take the ordinary operator-new path. Outside Linux large slabs use
/// aligned operator new.
template <typename T>
struct HugePageAllocator {
  using value_type = T;
  static constexpr size_t kHugePageBytes = size_t{2} << 20;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}  // NOLINT

  T* allocate(size_t n) {
    size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      return static_cast<T*>(::operator new(bytes));
    }
    return static_cast<T*>(MapHuge(bytes));
  }

  void deallocate(T* p, size_t n) {
    size_t bytes = n * sizeof(T);
    if (bytes < kHugePageBytes) {
      ::operator delete(p);
    } else {
      UnmapHuge(p, bytes);
    }
  }

  template <typename U>
  bool operator==(const HugePageAllocator<U>&) const {
    return true;
  }

 private:
  static size_t RoundToHuge(size_t bytes) {
    return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  }

  static void* MapHuge(size_t bytes) {
#if defined(__linux__)
    // Over-map by one huge page, then trim the head and the tail so the
    // mapping starts on a 2 MiB boundary and spans whole huge pages.
    size_t len = RoundToHuge(bytes);
    void* raw = mmap(nullptr, len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (raw == MAP_FAILED) throw std::bad_alloc();
    uintptr_t start = reinterpret_cast<uintptr_t>(raw);
    uintptr_t aligned = (start + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
    size_t head = aligned - start;
    if (head > 0) munmap(raw, head);
    size_t tail = kHugePageBytes - head;
    if (tail > 0) munmap(reinterpret_cast<void*>(aligned + len), tail);
    void* p = reinterpret_cast<void*>(aligned);
#if defined(MADV_HUGEPAGE)
    madvise(p, len, MADV_HUGEPAGE);
#endif
    return p;
#else
    return ::operator new(bytes, std::align_val_t{kHugePageBytes});
#endif
  }

  static void UnmapHuge(void* p, size_t bytes) {
#if defined(__linux__)
    munmap(p, RoundToHuge(bytes));
#else
    ::operator delete(p, std::align_val_t{kHugePageBytes});
#endif
  }
};

/// Open-addressing hash map from int64 keys to inline values.
///
/// The same layout the buffer pool's page index uses (DESIGN.md §4f),
/// generalized: power-of-two slot array, Fibonacci hashing, linear probing,
/// backward-shift deletion (no tombstones, so probe chains never rot), and
/// values stored inline in the slot array — a hit is one probe into one
/// contiguous allocation instead of a node chase. Grows at load factor 0.7.
///
/// Occupancy is encoded in the key itself: kEmptyKey (INT64_MIN) marks a
/// free slot, so a probe touches exactly one array — with a large table
/// that is one cache miss, not two (a parallel occupancy byte array would
/// miss separately). Consequently INT64_MIN is reserved and must never be
/// inserted; every current caller stores non-negative domain keys.
///
/// Used where `std::unordered_map<int64_t, V>` sat on a hot path: the
/// synthetic-table overlay (every Update of a mutated row) and tombstone
/// set. Iteration order is unspecified and changes across rehashes; callers
/// that fold over entries must be order-independent (the table state hash
/// XORs per-entry hashes for exactly this reason).
template <typename V>
class FlatMap64 {
 public:
  /// Reserved free-slot marker; never a legal key.
  static constexpr int64_t kEmptyKey = std::numeric_limits<int64_t>::min();

  FlatMap64() { Init(16); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    slots_.assign(slots_.size(), Slot{});
    size_ = 0;
  }

  void reserve(size_t n) {
    size_t target = 16;
    while (target * 7 < n * 10) target <<= 1;
    if (target > slots_.size()) Rehash(target);
  }

  /// Pointer to the value for `key`, or nullptr. Stable only until the next
  /// insert or erase.
  V* Find(int64_t key) {
    size_t slot = Home(key);
    while (slots_[slot].key != kEmptyKey) {
      if (slots_[slot].key == key) return &slots_[slot].value;
      slot = (slot + 1) & mask_;
    }
    return nullptr;
  }
  const V* Find(int64_t key) const {
    return const_cast<FlatMap64*>(this)->Find(key);
  }
  bool Contains(int64_t key) const { return Find(key) != nullptr; }

  /// Inserts or overwrites; returns the stored value.
  V& InsertOrAssign(int64_t key, V value) {
    GrowIfNeeded();
    size_t slot = Home(key);
    while (slots_[slot].key != kEmptyKey) {
      if (slots_[slot].key == key) {
        slots_[slot].value = std::move(value);
        return slots_[slot].value;
      }
      slot = (slot + 1) & mask_;
    }
    slots_[slot].key = key;
    slots_[slot].value = std::move(value);
    ++size_;
    return slots_[slot].value;
  }

  /// Removes `key` if present; returns whether it was.
  bool Erase(int64_t key) {
    size_t slot = Home(key);
    while (true) {
      if (slots_[slot].key == kEmptyKey) return false;
      if (slots_[slot].key == key) break;
      slot = (slot + 1) & mask_;
    }
    // Backward-shift deletion: close the hole by moving back any later
    // entry in the probe chain that would become unreachable.
    size_t hole = slot;
    size_t probe = (hole + 1) & mask_;
    while (slots_[probe].key != kEmptyKey) {
      size_t home = Home(slots_[probe].key);
      bool reachable = ((probe - home) & mask_) >= ((probe - hole) & mask_);
      if (reachable) {
        slots_[hole] = std::move(slots_[probe]);
        hole = probe;
      }
      probe = (probe + 1) & mask_;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Calls fn(key, value) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }

 private:
  // Deliberately unpadded: a hit reads the whole slot (key + value), so
  // packing slots densely minimizes total DRAM traffic; padding slots to a
  // cache line was measured slower on the overlay-update bench.
  struct Slot {
    int64_t key = kEmptyKey;
    V value{};
  };

  void Init(size_t capacity) {
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    size_ = 0;
  }

  size_t Home(int64_t key) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void GrowIfNeeded() {
    if ((size_ + 1) * 10 <= slots_.size() * 7) return;
    Rehash(slots_.size() * 2);
  }

  void Rehash(size_t capacity) {
    std::vector<Slot, HugePageAllocator<Slot>> old_slots = std::move(slots_);
    Init(capacity);
    for (Slot& s : old_slots) {
      if (s.key == kEmptyKey) continue;
      size_t slot = Home(s.key);
      while (slots_[slot].key != kEmptyKey) slot = (slot + 1) & mask_;
      slots_[slot] = std::move(s);
      ++size_;
    }
  }

  std::vector<Slot, HugePageAllocator<Slot>> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

/// FlatMap64 with no payload: the open-addressing set of int64 keys
/// (synthetic-table tombstones).
class FlatSet64 {
 public:
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(size_t n) { map_.reserve(n); }
  bool Contains(int64_t key) const { return map_.Contains(key); }
  void Insert(int64_t key) { map_.InsertOrAssign(key, Unit{}); }
  bool Erase(int64_t key) { return map_.Erase(key); }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    map_.ForEach([&fn](int64_t key, const Unit&) { fn(key); });
  }

 private:
  struct Unit {};
  FlatMap64<Unit> map_;
};

}  // namespace cloudybench::util

#endif  // CLOUDYBENCH_UTIL_FLAT_HASH_H_

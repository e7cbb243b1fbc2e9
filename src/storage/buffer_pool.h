#ifndef CLOUDYBENCH_STORAGE_BUFFER_POOL_H_
#define CLOUDYBENCH_STORAGE_BUFFER_POOL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/row.h"
#include "util/flat_hash.h"

namespace cloudybench::storage {

/// `count` consecutive pages of one table, starting at `first`.
struct PageRun {
  PageId first;
  int64_t count = 0;
};

/// LRU page cache descriptor table.
///
/// Row contents live in the SyntheticTables; the buffer pool models *which*
/// pages are memory-resident, so a miss is what costs an I/O in the engine
/// above. Dirty-page tracking drives the two write-back behaviours the paper
/// contrasts: AWS RDS must flush dirty pages (checkpointing overhead, slow
/// ARIES restart), while storage-disaggregated CDBs ship redo instead and
/// never write pages back.
///
/// Layout (DESIGN.md §4f): frames live in one contiguous vector and carry
/// intrusive prev/next indices for two lists — the LRU chain and a separate
/// dirty chain kept in the same recency order (per-frame monotonic stamps
/// make the ordered dirty insert exact even when MarkDirty runs long after
/// the page was touched). The page index is open-addressing with
/// fibonacci hashing and backward-shift deletion. Steady-state Touch/Admit/
/// MarkDirty/TakeDirty therefore never allocate, and TakeDirty is O(pages
/// taken) instead of O(pages resident). Pages a Prewarm left untouched sit
/// in a cold segment (a run list plus a bitset) with no frame or index slot;
/// they are resident and clean and keep the recency stamp Prewarm gave them.
class BufferPool {
 public:
  static constexpr int32_t kPageBytes = 8192;

  explicit BufferPool(int64_t capacity_bytes);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Result of admitting a page after a miss.
  struct AdmitResult {
    bool evicted = false;
    PageId victim;
    bool victim_dirty = false;
  };

  /// Looks up `page`; on hit it becomes most-recently-used. Defined inline
  /// below: this is the single hottest storage call (every page access in
  /// every transaction), and keeping it in the header lets callers in other
  /// translation units inline the probe + LRU move without LTO.
  bool Touch(PageId page);

  /// Inserts `page` (caller has performed the miss I/O), evicting the LRU
  /// page if full. The caller is responsible for writing back a dirty
  /// victim when the engine runs in write-back mode.
  AdmitResult Admit(PageId page);

  /// Bulk warm-up: leaves the pool in the same state as calling Admit on
  /// every page of `runs` in order; the runs must not share a page. An
  /// empty pool that can hold every page keeps them as a cold segment and
  /// gives a page a frame only on first use (DESIGN.md §4f), so the cost is
  /// O(pages / 64) whatever the pool size. Any other pool takes the
  /// per-page Admit path, skipping resident pages and evicting as usual.
  /// Counts neither hits nor misses.
  void Prewarm(std::span<const PageRun> runs);

  /// Marks a resident page dirty; no-op when not resident (the engine may
  /// have evicted it between access and mark in pathological interleavings).
  void MarkDirty(PageId page);
  /// Clears the dirty bit (page written back).
  void MarkClean(PageId page);

  bool IsResident(PageId page) const {
    return FindFrame(page) != kNil ||
           (cold_count_ > 0 && ColdPosition(page) >= 0);
  }
  bool IsDirty(PageId page) const;

  /// Takes up to `max_pages` dirty pages in LRU order and clears their dirty
  /// bits — the checkpointer's unit of work.
  std::vector<PageId> TakeDirty(size_t max_pages);

  /// Resizes the pool (memory autoscaling); shrinking evicts LRU pages.
  /// Evicted dirty pages are counted in `forced_dirty_evictions`.
  void SetCapacity(int64_t capacity_bytes);

  /// Drops every page (cold restart after a node failure). Dirty state is
  /// discarded — recovering it is the job of the recovery model.
  void Clear();

  int64_t capacity_pages() const { return capacity_pages_; }
  int64_t capacity_bytes() const { return capacity_pages_ * kPageBytes; }
  int64_t resident_pages() const { return resident_; }
  int64_t dirty_pages() const { return dirty_count_; }

  int64_t hits() const { return hits_; }
  int64_t misses() const { return misses_; }
  double hit_rate() const {
    int64_t total = hits_ + misses_;
    return total > 0 ? static_cast<double>(hits_) / static_cast<double>(total)
                     : 0.0;
  }
  int64_t forced_dirty_evictions() const { return forced_dirty_evictions_; }

 private:
  static constexpr int32_t kNil = -1;

  struct Frame {
    PageId page;
    uint64_t stamp = 0;  ///< recency clock at last touch/admit
    int32_t lru_prev = kNil;
    int32_t lru_next = kNil;
    int32_t dirty_prev = kNil;
    int32_t dirty_next = kNil;
    bool dirty = false;
  };

  void EvictOne(AdmitResult* result);
  /// Takes a frame for `page` with recency `stamp` and indexes it; the
  /// caller links it into the LRU chain and counts it resident.
  int32_t NewFrame(PageId page, uint64_t stamp);

  // ---- cold segment (pages a Prewarm left without a frame) ----
  /// The cold segment's position of `page`, or -1 when it is not cold.
  int64_t ColdPosition(PageId page) const;
  /// The page at cold segment position `pos`.
  PageId ColdPage(int64_t pos) const;
  /// Lowest position still cold, i.e. the oldest cold page.
  int64_t FirstCold();
  /// Clears `pos`; the segment is dropped once its last page leaves.
  void ClearCold(int64_t pos);
  void DropColdSegment();
  /// Gives cold page `page` (at `pos`) a frame with recency `stamp`.
  int32_t FrameCold(int64_t pos, PageId page, uint64_t stamp);
  /// Touch's miss path: a cold page becomes the MRU frame. False when
  /// `page` is not cold.
  bool TouchCold(PageId page);

  // ---- page index (open addressing, power-of-two, fibonacci hash) ----
  size_t Slot(PageId page) const {
    uint64_t key = (static_cast<uint64_t>(static_cast<uint32_t>(page.table))
                    << 48) ^
                   static_cast<uint64_t>(page.page_no);
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> index_shift_);
  }
  /// Frame index or kNil. Inline (header) — see Touch.
  int32_t FindFrame(PageId page) const {
    size_t slot = Slot(page);
    for (;;) {
      int32_t f = index_[slot];
      if (f == kNil) return kNil;
      if (frames_[static_cast<size_t>(f)].page == page) return f;
      slot = (slot + 1) & index_mask_;
    }
  }
  void IndexInsert(PageId page, int32_t frame);
  void IndexErase(PageId page);
  void GrowIndexIfNeeded();
  /// Replaces the index with `size` (a power of two) empty slots.
  void ResetIndex(size_t size);

  // ---- intrusive lists ----
  void LruPushFront(int32_t f);
  void LruUnlink(int32_t f);
  /// Links `f` into the LRU chain by stamp, walking from the tail: only a
  /// cold page dirtied before its first use has a stamp below the head's.
  void LruInsertByStamp(int32_t f);
  void DirtyUnlink(int32_t f);
  /// Inserts `f` into the dirty chain keeping it sorted by stamp
  /// (descending from head). O(1) when the page was just touched — the
  /// overwhelmingly common case — O(dirtier-and-more-recent) otherwise.
  void DirtyInsertOrdered(int32_t f);

  int64_t capacity_pages_;
  int64_t resident_ = 0;
  uint64_t clock_ = 0;

  // Frames and index are the two arrays every Touch probes at random; a
  // large pool backs them with huge pages, which cuts the TLB misses of
  // those probes.
  std::vector<Frame, util::HugePageAllocator<Frame>> frames_;
  std::vector<int32_t> free_frames_;
  int32_t lru_head_ = kNil;   ///< MRU end
  int32_t lru_tail_ = kNil;   ///< LRU end (eviction victim)
  int32_t dirty_head_ = kNil; ///< most recently used dirty page
  int32_t dirty_tail_ = kNil; ///< coldest dirty page (checkpointed first)

  /// slot -> frame index, kNil = empty
  std::vector<int32_t, util::HugePageAllocator<int32_t>> index_;
  size_t index_mask_ = 0;
  int index_shift_ = 64;

  /// One prewarm run and the cold segment position of its first page.
  struct ColdRun {
    PageRun run;
    int64_t start = 0;
  };
  // Position p of the cold segment is the p-th prewarmed page; it has
  // recency stamp cold_base_ + p + 1 and is cold while bit p is set.
  // cold_count_ counts the set bits and is part of resident_.
  std::vector<ColdRun> cold_runs_;
  std::vector<uint64_t> cold_bits_;
  size_t cold_cursor_ = 0;  ///< no set bit in the words below it
  uint64_t cold_base_ = 0;
  int64_t cold_count_ = 0;

  int64_t dirty_count_ = 0;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t forced_dirty_evictions_ = 0;
};

inline bool BufferPool::Touch(PageId page) {
  int32_t f = FindFrame(page);
  if (f == kNil) {
    if (cold_count_ > 0 && TouchCold(page)) {
      ++hits_;
      return true;
    }
    ++misses_;
    return false;
  }
  ++hits_;
  Frame& frame = frames_[static_cast<size_t>(f)];
  frame.stamp = ++clock_;
  if (f != lru_head_) {
    // Fused move-to-front: f is not the head, so it has a predecessor and
    // the list is non-empty — the generic unlink/push branches fold away.
    frames_[static_cast<size_t>(frame.lru_prev)].lru_next = frame.lru_next;
    if (frame.lru_next != kNil) {
      frames_[static_cast<size_t>(frame.lru_next)].lru_prev = frame.lru_prev;
    } else {
      lru_tail_ = frame.lru_prev;
    }
    frame.lru_prev = kNil;
    frame.lru_next = lru_head_;
    frames_[static_cast<size_t>(lru_head_)].lru_prev = f;
    lru_head_ = f;
  }
  if (frame.dirty && f != dirty_head_) {
    DirtyUnlink(f);
    frame.dirty_prev = kNil;
    frame.dirty_next = dirty_head_;
    frames_[static_cast<size_t>(dirty_head_)].dirty_prev = f;
    dirty_head_ = f;
  }
  return true;
}

}  // namespace cloudybench::storage

#endif  // CLOUDYBENCH_STORAGE_BUFFER_POOL_H_

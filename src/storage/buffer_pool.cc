#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace cloudybench::storage {

namespace {

/// True when two non-empty runs share a page.
bool RunsOverlap(std::span<const PageRun> runs) {
  for (size_t i = 0; i < runs.size(); ++i) {
    for (size_t j = i + 1; j < runs.size(); ++j) {
      const PageRun& a = runs[i];
      const PageRun& b = runs[j];
      if (a.count > 0 && b.count > 0 && a.first.table == b.first.table &&
          a.first.page_no < b.first.page_no + b.count &&
          b.first.page_no < a.first.page_no + a.count) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

BufferPool::BufferPool(int64_t capacity_bytes) {
  CB_CHECK_GT(capacity_bytes, 0);
  capacity_pages_ = std::max<int64_t>(1, capacity_bytes / kPageBytes);
  ResetIndex(16);
}

// ---------------------------------------------------------------- index

void BufferPool::IndexInsert(PageId page, int32_t frame) {
  size_t slot = Slot(page);
  while (index_[slot] != kNil) slot = (slot + 1) & index_mask_;
  index_[slot] = frame;
}

void BufferPool::IndexErase(PageId page) {
  size_t slot = Slot(page);
  while (index_[slot] == kNil ||
         !(frames_[static_cast<size_t>(index_[slot])].page == page)) {
    slot = (slot + 1) & index_mask_;
  }
  // Backward-shift deletion: close the hole by moving back any later entry
  // in the probe chain that would become unreachable.
  size_t hole = slot;
  size_t probe = (hole + 1) & index_mask_;
  while (index_[probe] != kNil) {
    size_t home = Slot(frames_[static_cast<size_t>(index_[probe])].page);
    // Move `probe` into the hole if its home slot does not sit strictly
    // after the hole in probe order (i.e. the hole lies within its chain).
    bool reachable = ((probe - home) & index_mask_) >= ((probe - hole) & index_mask_);
    if (reachable) {
      index_[hole] = index_[probe];
      hole = probe;
    }
    probe = (probe + 1) & index_mask_;
  }
  index_[hole] = kNil;
}

void BufferPool::GrowIndexIfNeeded() {
  // Keep load factor <= 0.5 so probe chains stay short. Only framed pages
  // take a slot; the page about to be indexed is not framed yet.
  const int64_t framed = resident_ - cold_count_;
  if (static_cast<size_t>(framed + 1) * 2 <= index_.size()) return;
  ResetIndex(index_.size() * 2);
  for (int32_t f = lru_head_; f != kNil;
       f = frames_[static_cast<size_t>(f)].lru_next) {
    IndexInsert(frames_[static_cast<size_t>(f)].page, f);
  }
}

void BufferPool::ResetIndex(size_t size) {
  index_.assign(size, kNil);
  index_mask_ = size - 1;
  index_shift_ = 64 - std::countr_zero(size);
}

// ------------------------------------------------------ intrusive lists

void BufferPool::LruPushFront(int32_t f) {
  Frame& frame = frames_[static_cast<size_t>(f)];
  frame.lru_prev = kNil;
  frame.lru_next = lru_head_;
  if (lru_head_ != kNil) frames_[static_cast<size_t>(lru_head_)].lru_prev = f;
  lru_head_ = f;
  if (lru_tail_ == kNil) lru_tail_ = f;
}

void BufferPool::LruUnlink(int32_t f) {
  Frame& frame = frames_[static_cast<size_t>(f)];
  if (frame.lru_prev != kNil) {
    frames_[static_cast<size_t>(frame.lru_prev)].lru_next = frame.lru_next;
  } else {
    lru_head_ = frame.lru_next;
  }
  if (frame.lru_next != kNil) {
    frames_[static_cast<size_t>(frame.lru_next)].lru_prev = frame.lru_prev;
  } else {
    lru_tail_ = frame.lru_prev;
  }
}

void BufferPool::LruInsertByStamp(int32_t f) {
  Frame& frame = frames_[static_cast<size_t>(f)];
  int32_t older = kNil;
  int32_t newer = lru_tail_;
  while (newer != kNil &&
         frames_[static_cast<size_t>(newer)].stamp < frame.stamp) {
    older = newer;
    newer = frames_[static_cast<size_t>(newer)].lru_prev;
  }
  frame.lru_prev = newer;
  frame.lru_next = older;
  if (newer != kNil) {
    frames_[static_cast<size_t>(newer)].lru_next = f;
  } else {
    lru_head_ = f;
  }
  if (older != kNil) {
    frames_[static_cast<size_t>(older)].lru_prev = f;
  } else {
    lru_tail_ = f;
  }
}

void BufferPool::DirtyUnlink(int32_t f) {
  Frame& frame = frames_[static_cast<size_t>(f)];
  if (frame.dirty_prev != kNil) {
    frames_[static_cast<size_t>(frame.dirty_prev)].dirty_next =
        frame.dirty_next;
  } else {
    dirty_head_ = frame.dirty_next;
  }
  if (frame.dirty_next != kNil) {
    frames_[static_cast<size_t>(frame.dirty_next)].dirty_prev =
        frame.dirty_prev;
  } else {
    dirty_tail_ = frame.dirty_prev;
  }
  frame.dirty_prev = frame.dirty_next = kNil;
}

void BufferPool::DirtyInsertOrdered(int32_t f) {
  Frame& frame = frames_[static_cast<size_t>(f)];
  // The dirty chain mirrors LRU order (stamps descend from head), so the
  // checkpointer can take the coldest dirty pages from the tail in O(taken).
  // A page is almost always marked dirty right after being touched — then
  // its stamp is the pool's max and this insert is O(1). The scan only
  // walks when a simulated I/O await let other pages overtake it.
  int32_t after = kNil;  // last node with stamp > frame.stamp
  int32_t cursor = dirty_head_;
  while (cursor != kNil &&
         frames_[static_cast<size_t>(cursor)].stamp > frame.stamp) {
    after = cursor;
    cursor = frames_[static_cast<size_t>(cursor)].dirty_next;
  }
  frame.dirty_prev = after;
  frame.dirty_next = cursor;
  if (after != kNil) {
    frames_[static_cast<size_t>(after)].dirty_next = f;
  } else {
    dirty_head_ = f;
  }
  if (cursor != kNil) {
    frames_[static_cast<size_t>(cursor)].dirty_prev = f;
  } else {
    dirty_tail_ = f;
  }
}

// --------------------------------------------------------- cold segment

int64_t BufferPool::ColdPosition(PageId page) const {
  for (const ColdRun& cold : cold_runs_) {
    const PageRun& run = cold.run;
    if (run.first.table == page.table && page.page_no >= run.first.page_no &&
        page.page_no < run.first.page_no + run.count) {
      int64_t pos = cold.start + (page.page_no - run.first.page_no);
      bool cold_bit = (cold_bits_[static_cast<size_t>(pos >> 6)] >>
                       (pos & 63)) & 1;
      return cold_bit ? pos : -1;
    }
  }
  return -1;
}

PageId BufferPool::ColdPage(int64_t pos) const {
  for (const ColdRun& cold : cold_runs_) {
    if (pos < cold.start + cold.run.count) {
      return PageId{cold.run.first.table,
                    cold.run.first.page_no + (pos - cold.start)};
    }
  }
  CB_CHECK(false) << "ColdPage: position " << pos << " past the segment";
  return {};
}

int64_t BufferPool::FirstCold() {
  while (cold_bits_[cold_cursor_] == 0) ++cold_cursor_;
  return static_cast<int64_t>(cold_cursor_ * 64) +
         std::countr_zero(cold_bits_[cold_cursor_]);
}

void BufferPool::ClearCold(int64_t pos) {
  cold_bits_[static_cast<size_t>(pos >> 6)] &= ~(uint64_t{1} << (pos & 63));
  if (--cold_count_ == 0) DropColdSegment();
}

void BufferPool::DropColdSegment() {
  cold_runs_.clear();
  cold_bits_.clear();
  cold_cursor_ = 0;
  cold_count_ = 0;
}

int32_t BufferPool::FrameCold(int64_t pos, PageId page, uint64_t stamp) {
  // NewFrame sizes the index while the page still counts as cold.
  int32_t f = NewFrame(page, stamp);
  ClearCold(pos);
  return f;
}

bool BufferPool::TouchCold(PageId page) {
  int64_t pos = ColdPosition(page);
  if (pos < 0) return false;
  LruPushFront(FrameCold(pos, page, ++clock_));
  return true;
}

// ------------------------------------------------------------ operations

void BufferPool::EvictOne(AdmitResult* result) {
  if (cold_count_ > 0) {
    // The victim is the older of the LRU tail and the oldest cold page. A
    // cold page is clean and has no frame or index slot to release.
    int64_t pos = FirstCold();
    if (lru_tail_ == kNil ||
        cold_base_ + static_cast<uint64_t>(pos) + 1 <
            frames_[static_cast<size_t>(lru_tail_)].stamp) {
      PageId page = ColdPage(pos);
      ClearCold(pos);
      --resident_;
      if (result != nullptr) {
        result->evicted = true;
        result->victim = page;
      }
      return;
    }
  }
  CB_CHECK(lru_tail_ != kNil);
  int32_t f = lru_tail_;
  Frame& victim = frames_[static_cast<size_t>(f)];
  LruUnlink(f);
  if (victim.dirty) {
    DirtyUnlink(f);
    victim.dirty = false;
    --dirty_count_;
    ++forced_dirty_evictions_;
    if (result != nullptr) result->victim_dirty = true;
  }
  IndexErase(victim.page);
  --resident_;
  if (result != nullptr) {
    result->evicted = true;
    result->victim = victim.page;
  }
  free_frames_.push_back(f);
}

int32_t BufferPool::NewFrame(PageId page, uint64_t stamp) {
  int32_t f;
  if (!free_frames_.empty()) {
    f = free_frames_.back();
    free_frames_.pop_back();
  } else {
    f = static_cast<int32_t>(frames_.size());
    frames_.emplace_back();
  }
  Frame& frame = frames_[static_cast<size_t>(f)];
  frame.page = page;
  frame.dirty = false;
  frame.dirty_prev = frame.dirty_next = kNil;
  frame.stamp = stamp;
  // Grow before the frame joins the LRU chain: the rehash walks that chain,
  // so a linked frame would be indexed twice.
  GrowIndexIfNeeded();
  IndexInsert(page, f);
  return f;
}

BufferPool::AdmitResult BufferPool::Admit(PageId page) {
  AdmitResult result;
  if (IsResident(page)) return result;  // raced in already, or still cold
  if (resident_ >= capacity_pages_) {
    EvictOne(&result);
  }
  LruPushFront(NewFrame(page, ++clock_));
  ++resident_;
  return result;
}

void BufferPool::Prewarm(std::span<const PageRun> runs) {
  int64_t n = 0;
  for (const PageRun& run : runs) {
    CB_CHECK_GE(run.count, 0);
    n += run.count;
  }
  CB_CHECK(!RunsOverlap(runs)) << "Prewarm: runs share a page";
  if (resident_ != 0 || n > capacity_pages_) {
    for (const PageRun& run : runs) {
      for (int64_t i = 0; i < run.count; ++i) {
        Admit(PageId{run.first.table, run.first.page_no + i});
      }
    }
    return;
  }
  if (n == 0) return;
  // An empty pool records what n Admits would build without building it:
  // the i-th page is resident with stamp clock_ + i + 1, so the first page
  // of the first run is the LRU end and the last page the MRU end. A page
  // gets its frame when the simulation first uses it, and the frame vector
  // grows as they do. Its slabs of 2 MiB and up are mapped and unmapped by
  // HugePageAllocator, so growing it leaves no large freed blocks in the
  // heap.
  int64_t start = 0;
  for (const PageRun& run : runs) {
    if (run.count == 0) continue;
    cold_runs_.push_back(ColdRun{run, start});
    start += run.count;
  }
  const auto words = static_cast<size_t>((n + 63) / 64);
  cold_bits_.assign(words, ~uint64_t{0});
  if (n % 64 != 0) cold_bits_.back() = (uint64_t{1} << (n % 64)) - 1;
  cold_base_ = clock_;
  cold_count_ = n;
  clock_ += static_cast<uint64_t>(n);
  resident_ = n;
}

void BufferPool::MarkDirty(PageId page) {
  int32_t f = FindFrame(page);
  if (f == kNil) {
    int64_t pos = cold_count_ > 0 ? ColdPosition(page) : -1;
    if (pos < 0) return;
    // Dirtied before its first use: the page keeps its prewarm recency.
    f = FrameCold(pos, page, cold_base_ + static_cast<uint64_t>(pos) + 1);
    LruInsertByStamp(f);
  }
  Frame& frame = frames_[static_cast<size_t>(f)];
  if (!frame.dirty) {
    frame.dirty = true;
    ++dirty_count_;
    DirtyInsertOrdered(f);
  }
}

void BufferPool::MarkClean(PageId page) {
  int32_t f = FindFrame(page);
  if (f == kNil) return;
  Frame& frame = frames_[static_cast<size_t>(f)];
  if (frame.dirty) {
    DirtyUnlink(f);
    frame.dirty = false;
    --dirty_count_;
  }
}

bool BufferPool::IsDirty(PageId page) const {
  int32_t f = FindFrame(page);
  return f != kNil && frames_[static_cast<size_t>(f)].dirty;
}

std::vector<PageId> BufferPool::TakeDirty(size_t max_pages) {
  std::vector<PageId> taken;
  taken.reserve(std::min<size_t>(max_pages,
                                 static_cast<size_t>(dirty_count_)));
  // The dirty chain's tail is the coldest dirty page, so walking tail-first
  // cleans cold pages first — same order the full LRU walk used to produce,
  // without visiting clean pages.
  while (dirty_tail_ != kNil && taken.size() < max_pages) {
    int32_t f = dirty_tail_;
    Frame& frame = frames_[static_cast<size_t>(f)];
    DirtyUnlink(f);
    frame.dirty = false;
    --dirty_count_;
    taken.push_back(frame.page);
  }
  return taken;
}

void BufferPool::SetCapacity(int64_t capacity_bytes) {
  CB_CHECK_GT(capacity_bytes, 0);
  capacity_pages_ = std::max<int64_t>(1, capacity_bytes / kPageBytes);
  while (resident_ > capacity_pages_) {
    EvictOne(nullptr);
  }
}

void BufferPool::Clear() {
  frames_.clear();
  free_frames_.clear();
  std::fill(index_.begin(), index_.end(), kNil);
  lru_head_ = lru_tail_ = dirty_head_ = dirty_tail_ = kNil;
  resident_ = 0;
  dirty_count_ = 0;
  DropColdSegment();
}

}  // namespace cloudybench::storage

#include "storage/buffer_pool.h"

#include <algorithm>
#include <bit>

#include "util/logging.h"

namespace cloudybench::storage {

namespace {

/// Smallest power of two >= n, at least 16 (keeps the probe mask useful for
/// tiny pools).
size_t IndexSizeFor(size_t n) {
  size_t size = 16;
  while (size < n) size <<= 1;
  return size;
}

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
  ResetIndex(IndexSizeFor(16));
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
  // Keep load factor <= 0.5 so probe chains stay short.
  if (static_cast<size_t>(resident_ + 1) * 2 <= index_.size()) return;
  ResetIndex(IndexSizeFor(index_.size() * 2));
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

// ------------------------------------------------------------ operations

void BufferPool::EvictOne(AdmitResult* result) {
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

BufferPool::AdmitResult BufferPool::Admit(PageId page) {
  AdmitResult result;
  if (FindFrame(page) != kNil) return result;  // raced in already
  if (resident_ >= capacity_pages_) {
    EvictOne(&result);
  }
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
  frame.stamp = ++clock_;
  LruPushFront(f);
  GrowIndexIfNeeded();
  IndexInsert(page, f);
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
  // One pass over an empty pool, building what n Admits would: frame i
  // holds the i-th page with stamp clock_ + i + 1, the LRU chain runs from
  // the last page (head) back to the first (tail), and the index has the
  // size per-page growth reaches. Reserving bit_ceil(n) frames matches the
  // capacity emplace_back doubling leaves, so the first miss after the
  // prewarm does not reallocate the whole frame vector.
  frames_.clear();
  free_frames_.clear();
  frames_.reserve(std::bit_ceil(static_cast<size_t>(n)));
  const auto last = static_cast<int32_t>(n - 1);
  for (const PageRun& run : runs) {
    for (int64_t i = 0; i < run.count; ++i) {
      const auto f = static_cast<int32_t>(frames_.size());
      Frame frame;
      frame.page = PageId{run.first.table, run.first.page_no + i};
      frame.stamp = clock_ + static_cast<uint64_t>(f) + 1;
      frame.lru_prev = f == last ? kNil : f + 1;
      frame.lru_next = f == 0 ? kNil : f - 1;
      frames_.push_back(frame);
    }
  }
  clock_ += static_cast<uint64_t>(n);
  lru_head_ = last;
  lru_tail_ = 0;
  resident_ = n;
  ResetIndex(std::max(index_.size(), IndexSizeFor(static_cast<size_t>(n) * 2)));
  for (int32_t f = 0; f <= last; ++f) {
    IndexInsert(frames_[static_cast<size_t>(f)].page, f);
  }
}

void BufferPool::CloneFrom(const BufferPool& source) {
  CB_CHECK_EQ(resident_, 0);
  CB_CHECK_EQ(capacity_pages_, source.capacity_pages_);
  // Keep the source's spare frame capacity, for the same reason Prewarm
  // reserves it.
  frames_.reserve(source.frames_.capacity());
  frames_.assign(source.frames_.begin(), source.frames_.end());
  free_frames_ = source.free_frames_;
  index_ = source.index_;
  index_mask_ = source.index_mask_;
  index_shift_ = source.index_shift_;
  lru_head_ = source.lru_head_;
  lru_tail_ = source.lru_tail_;
  dirty_head_ = source.dirty_head_;
  dirty_tail_ = source.dirty_tail_;
  resident_ = source.resident_;
  dirty_count_ = source.dirty_count_;
  clock_ = source.clock_;
}

void BufferPool::MarkDirty(PageId page) {
  int32_t f = FindFrame(page);
  if (f == kNil) return;
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
}

}  // namespace cloudybench::storage

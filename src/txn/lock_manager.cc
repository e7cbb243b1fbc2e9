#include "txn/lock_manager.h"

#include <bit>

#include "obs/trace.h"
#include "util/logging.h"

namespace cloudybench::txn {

namespace {
constexpr size_t kInitialIndexSize = 64;  // power of two, load kept <= 0.5
}

LockManager::LockManager(sim::Environment* env, sim::SimTime wait_timeout)
    : env_(env),
      recorder_(&obs::TraceRecorder::Get()),
      wait_timeout_(wait_timeout) {
  CB_CHECK(env != nullptr);
  CB_CHECK_GT(wait_timeout.us, 0);
  index_.assign(kInitialIndexSize, kNil);
  index_mask_ = kInitialIndexSize - 1;
  index_shift_ = 64 - std::countr_zero(kInitialIndexSize);
}

int32_t LockManager::FindEntry(TableKey key) const {
  size_t slot = IndexHome(key);
  while (index_[slot] != kNil) {
    if (entries_[index_[slot]].key == key) return index_[slot];
    slot = (slot + 1) & index_mask_;
  }
  return kNil;
}

void LockManager::IndexInsert(TableKey key, int32_t eid) {
  size_t slot = IndexHome(key);
  while (index_[slot] != kNil) slot = (slot + 1) & index_mask_;
  index_[slot] = eid;
}

void LockManager::IndexErase(TableKey key) {
  size_t slot = IndexHome(key);
  while (index_[slot] != kNil && !(entries_[index_[slot]].key == key)) {
    slot = (slot + 1) & index_mask_;
  }
  CB_CHECK(index_[slot] != kNil) << "erasing unindexed lock key";
  // Backward-shift deletion (same as the buffer pool's page index): close
  // the hole with any later probe-chain entry that would become unreachable.
  size_t hole = slot;
  size_t probe = (hole + 1) & index_mask_;
  while (index_[probe] != kNil) {
    size_t home = IndexHome(entries_[index_[probe]].key);
    bool reachable =
        ((probe - home) & index_mask_) >= ((probe - hole) & index_mask_);
    if (reachable) {
      index_[hole] = index_[probe];
      hole = probe;
    }
    probe = (probe + 1) & index_mask_;
  }
  index_[hole] = kNil;
}

void LockManager::GrowIndexIfNeeded() {
  if ((live_entries_ + 1) * 2 <= index_.size()) return;
  size_t size = index_.size() * 2;
  index_.assign(size, kNil);
  index_mask_ = size - 1;
  index_shift_ = 64 - std::countr_zero(size);
  for (size_t eid = 0; eid < entries_.size(); ++eid) {
    if (!entries_[eid].in_use) continue;
    size_t slot = IndexHome(entries_[eid].key);
    while (index_[slot] != kNil) slot = (slot + 1) & index_mask_;
    index_[slot] = static_cast<int32_t>(eid);
  }
}

int32_t LockManager::AllocEntry(TableKey key) {
  GrowIndexIfNeeded();
  int32_t eid;
  if (!free_entries_.empty()) {
    eid = free_entries_.back();
    free_entries_.pop_back();
  } else {
    eid = static_cast<int32_t>(entries_.size());
    entries_.emplace_back();
  }
  LockEntry& entry = entries_[eid];
  entry.key = key;
  entry.in_use = true;
  IndexInsert(key, eid);
  ++live_entries_;
  return eid;
}

void LockManager::FreeEntry(int32_t eid) {
  LockEntry& entry = entries_[eid];
  IndexErase(entry.key);
  entry.in_use = false;
  entry.holders.clear();  // capacity retained for the next occupant
  entry.queue.clear();
  entry.queue_head = 0;
  free_entries_.push_back(eid);
  --live_entries_;
}

bool LockManager::GrantableNow(const LockEntry& entry, int64_t txn,
                               LockMode mode, bool upgrade) const {
  if (upgrade) {
    // S->X upgrade: grantable once the requester is the sole holder.
    return entry.holders.size() == 1 && entry.holders[0].txn == txn;
  }
  if (entry.holders.empty()) return true;
  if (mode == LockMode::kExclusive) return false;
  for (const HolderSlot& h : entry.holders) {
    if (h.mode == LockMode::kExclusive) return false;
  }
  return true;
}

void LockManager::AddHolder(LockEntry& entry, int64_t txn, LockMode mode) {
  for (HolderSlot& h : entry.holders) {
    if (h.txn == txn) {
      if (mode == LockMode::kExclusive) h.mode = LockMode::kExclusive;
      ++grants_;  // upgrade; never downgrade
      return;
    }
  }
  entry.holders.push_back(HolderSlot{txn, mode});
  ++grants_;
}

LockManager::Attempt LockManager::TryGrant(int64_t txn_id, TableKey key,
                                           LockMode mode) {
  int32_t eid = FindEntry(key);
  if (eid == kNil) {
    // Uncontended acquire: fresh (recycled) entry, immediate grant. This is
    // the dominant path in every OLTP cell.
    eid = AllocEntry(key);
    AddHolder(entries_[eid], txn_id, mode);
    return Attempt{true, eid, false};
  }
  LockEntry& entry = entries_[eid];
  const HolderSlot* held = nullptr;
  for (const HolderSlot& h : entry.holders) {
    if (h.txn == txn_id) {
      held = &h;
      break;
    }
  }
  if (held != nullptr &&
      (held->mode == LockMode::kExclusive || mode == LockMode::kShared)) {
    return Attempt{true, eid, false};  // already sufficient
  }
  bool upgrade = held != nullptr && mode == LockMode::kExclusive;

  // Immediate grant when compatible and not jumping a queue.
  if ((upgrade || entry.queue_size() == 0) &&
      GrantableNow(entry, txn_id, mode, upgrade)) {
    AddHolder(entry, txn_id, mode);
    return Attempt{true, eid, upgrade};
  }
  return Attempt{false, eid, upgrade};
}

sim::Task<util::Status> LockManager::LockQueued(int64_t txn_id, TableKey key,
                                                LockMode mode, Attempt attempt,
                                                uint64_t trace_track) {
  // Queue and wait. Upgrades go to the front so the upgrader cannot be
  // starved behind requests that are incompatible with its own S hold.
  LockEntry& entry = entries_[attempt.eid];
  CB_CHECK(entry.in_use && entry.key == key)
      << "Lock() result not awaited at the call";
  ++waits_;
  uint64_t node_id = next_node_id_++;
  sim::Waiter waiter(env_);
  WaitNode node{node_id, txn_id, mode, attempt.upgrade, &waiter};
  if (attempt.upgrade) {
    if (entry.queue_head > 0) {
      entry.queue[--entry.queue_head] = node;
    } else {
      entry.queue.insert(entry.queue.begin(), node);
    }
  } else {
    entry.queue.push_back(node);
  }
  env_->ScheduleCall(env_->Now() + wait_timeout_,
                     [this, key, node_id] { CancelWait(key, node_id); });

  // `entry`/`attempt.eid` must not be used past this point: the slab may
  // grow or recycle this slot while we are suspended.
  int outcome;
  {
    // Distinguishes genuinely queued time from the enclosing "lock.wait"
    // span (which also covers immediate grants) in profiles.
    obs::CachedSpanScope queued(recorder_, env_, trace_track,
                                obs::Layer::kLock, "lock.queue_wait");
    outcome = co_await waiter;
  }
  if (outcome == kGranted) co_return util::Status::OK();
  ++timeouts_;
  co_return util::Status::Aborted("lock wait timeout");
}

void LockManager::GrantFromQueue(int32_t eid) {
  LockEntry& entry = entries_[eid];
  while (entry.queue_size() > 0) {
    WaitNode& front = entry.queue[entry.queue_head];
    if (!GrantableNow(entry, front.txn, front.mode, front.upgrade)) break;
    WaitNode node = front;
    if (++entry.queue_head == entry.queue.size()) {
      entry.queue.clear();
      entry.queue_head = 0;
    }
    AddHolder(entry, node.txn, node.mode);
    node.waiter->Complete(kGranted);
    // Shared grants batch: the loop continues while compatible.
    if (node.mode == LockMode::kExclusive) break;
  }
  if (entry.holders.empty() && entry.queue_size() == 0) {
    FreeEntry(eid);
  }
}

void LockManager::CancelWait(TableKey key, uint64_t node_id) {
  int32_t eid = FindEntry(key);
  if (eid == kNil) return;
  LockEntry& entry = entries_[eid];
  for (size_t i = entry.queue_head; i < entry.queue.size(); ++i) {
    if (entry.queue[i].id == node_id) {
      sim::Waiter* waiter = entry.queue[i].waiter;
      entry.queue.erase(entry.queue.begin() + static_cast<ptrdiff_t>(i));
      if (entry.queue_head == entry.queue.size()) {
        entry.queue.clear();
        entry.queue_head = 0;
      }
      waiter->Complete(kTimedOut);
      // Removing a blocker at the head may unblock followers.
      GrantFromQueue(eid);
      return;
    }
  }
}

void LockManager::Release(int64_t txn_id, TableKey key) {
  int32_t eid = FindEntry(key);
  if (eid == kNil) return;
  LockEntry& entry = entries_[eid];
  for (size_t i = 0; i < entry.holders.size(); ++i) {
    if (entry.holders[i].txn == txn_id) {
      // Holder order is insignificant (compatibility checks are
      // order-independent), so swap-remove.
      entry.holders[i] = entry.holders.back();
      entry.holders.pop_back();
      break;
    }
  }
  GrantFromQueue(eid);
}

void LockManager::ReleaseAll(int64_t txn_id,
                             const std::vector<TableKey>& keys) {
  for (const TableKey& key : keys) Release(txn_id, key);
}

bool LockManager::Holds(int64_t txn_id, TableKey key, LockMode mode) const {
  int32_t eid = FindEntry(key);
  if (eid == kNil) return false;
  for (const HolderSlot& h : entries_[eid].holders) {
    if (h.txn == txn_id) {
      return mode == LockMode::kShared || h.mode == LockMode::kExclusive;
    }
  }
  return false;
}

}  // namespace cloudybench::txn

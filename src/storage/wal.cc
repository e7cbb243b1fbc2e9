#include "storage/wal.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/logging.h"

namespace cloudybench::storage {

LogManager::LogManager(sim::Environment* env, DiskDevice* device)
    : env_(env), recorder_(&obs::TraceRecorder::Get()), device_(device) {
  CB_CHECK(env != nullptr);
  CB_CHECK(device != nullptr);
}

void LogManager::PushTailChunk() {
  if (!free_chunks_.empty()) {
    chunks_.push_back(std::move(free_chunks_.back()));
    free_chunks_.pop_back();
  } else {
    chunks_.push_back(std::make_unique<LogRecord[]>(kChunkRecords));
    ++chunk_allocs_;
  }
  tail_off_ = 0;
}

int64_t LogManager::AppendBatch(const std::vector<LogRecord>& records) {
  if (records.empty()) return 0;
  for (const LogRecord& record : records) {
    if (tail_off_ == kChunkRecords) [[unlikely]] {
      PushTailChunk();
    }
    LogRecord& rec = chunks_.back()[tail_off_++];
    rec = record;
    rec.lsn = next_lsn_++;
    pending_bytes_ += rec.size_bytes();
  }
  records_appended_ += static_cast<int64_t>(records.size());
  pending_count_ += static_cast<int64_t>(records.size());
  return next_lsn_ - 1;
}

sim::Task<void> LogManager::WaitDurable(int64_t lsn) {
  if (lsn <= flushed_lsn_) co_return;
  sim::Waiter waiter(env_);
  waiters_.push_back(DurableWaiter{lsn, &waiter});
  if (!flushing_) {
    flushing_ = true;
    env_->Spawn(FlushLoop());
  }
  co_await waiter;
}

uint64_t LogManager::TraceTrack() {
  if (!recorder_->enabled()) return 0;
  if (trace_track_ == 0 || trace_epoch_ != recorder_->epoch()) {
    trace_track_ = recorder_->NewTrack();
    trace_epoch_ = recorder_->epoch();
    recorder_->SetTrackName(trace_track_, "wal");
  }
  return trace_track_;
}

sim::Process LogManager::FlushLoop() {
  while (flushed_lsn_ < next_lsn_ - 1) {
    // Everything appended so far joins this batch (group commit): the batch
    // is the whole pending buffer, so its size is exactly the running byte
    // counter. Records appended while the device write is in flight have
    // LSNs past `target` and join the next iteration's batch.
    int64_t target = next_lsn_ - 1;
    int64_t batch_bytes = pending_bytes_;
    {
      obs::CachedSpanScope flush(recorder_, env_, TraceTrack(),
                                 obs::Layer::kLog, "log.flush_batch");
      co_await device_->Write(batch_bytes);
    }
    ++flush_batches_;
    flushed_lsn_ = target;

    // Ship durable records in LSN order, stamping the commit instant. Each
    // contiguous chunk segment goes to the listeners as one span (a flush
    // batch is usually a single call) — replication streams stage the whole
    // batch without a std::function invocation per record.
    while (pending_count_ > 0 && chunks_.front()[head_off_].lsn <= target) {
      LogRecord* chunk = chunks_.front().get();
      size_t end = chunks_.size() == 1 ? tail_off_ : kChunkRecords;
      size_t cut = head_off_;
      while (cut < end && chunk[cut].lsn <= target) {
        chunk[cut].commit_time = env_->Now();
        pending_bytes_ -= chunk[cut].size_bytes();
        ++cut;
      }
      std::span<const LogRecord> segment(chunk + head_off_, cut - head_off_);
      pending_count_ -= static_cast<int64_t>(segment.size());
      head_off_ = cut;
      for (const auto& listener : ship_listeners_) listener(segment);
      if (head_off_ == kChunkRecords) {
        // Head chunk fully drained: recycle it and continue into the next.
        free_chunks_.push_back(std::move(chunks_.front()));
        chunks_.erase(chunks_.begin());
        head_off_ = 0;
      }
    }
    if (pending_count_ == 0) {
      // Fully drained: rewind the (single or absent) chunk so the buffer's
      // capacity is recycled and chunk turnover stays a cold branch.
      head_off_ = 0;
      tail_off_ = chunks_.empty() ? kChunkRecords : 0;
    }

    // Wake committers whose records are durable. Stable in-order
    // compaction, NOT swap-remove: wake order decides the sequence numbers
    // of the resume events and is therefore part of the deterministic
    // schedule.
    size_t kept = 0;
    for (size_t i = 0; i < waiters_.size(); ++i) {
      if (waiters_[i].lsn <= flushed_lsn_) {
        waiters_[i].waiter->Complete(0);
      } else {
        waiters_[kept++] = waiters_[i];
      }
    }
    waiters_.resize(kept);
  }
  flushing_ = false;
}

void LogManager::AddShipListener(
    std::function<void(std::span<const LogRecord>)> listener) {
  ship_listeners_.push_back(std::move(listener));
}

}  // namespace cloudybench::storage

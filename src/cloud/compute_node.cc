#include "cloud/compute_node.h"

#include <algorithm>
#include <utility>

#include "obs/timeline.h"
#include "obs/trace.h"

namespace cloudybench::cloud {

namespace {
using storage::BufferPool;
using util::Status;
}  // namespace

ComputeNode::ComputeNode(sim::Environment* env, Config config,
                         storage::TableSet* tables, sim::SlotResource* cpu,
                         storage::DiskDevice* local_disk,
                         net::Link* storage_link,
                         StorageService* storage_service,
                         RemoteBufferPool* remote_buffer,
                         storage::LogManager* log)
    : env_(env),
      config_(std::move(config)),
      obs_scope_("node." + config_.name),
      recorder_(&obs::TraceRecorder::Get()),
      tables_(tables),
      cpu_(cpu),
      buffer_(config_.buffer_bytes),
      local_disk_(local_disk),
      storage_link_(storage_link),
      storage_service_(storage_service),
      remote_buffer_(remote_buffer),
      log_(log),
      locks_(env, config_.lock_wait_timeout),
      txn_mgr_(this, config_.cpu_costs),
      allocated_vcores_(config_.vcores),
      allocated_memory_gb_(config_.memory_gb) {
  CB_CHECK(env != nullptr);
  CB_CHECK(tables != nullptr);
  CB_CHECK(cpu != nullptr);
  switch (config_.miss_path) {
    case MissPath::kLocalDisk:
      CB_CHECK(local_disk != nullptr);
      break;
    case MissPath::kDisaggregatedStorage:
      CB_CHECK(storage_link != nullptr);
      CB_CHECK(storage_service != nullptr);
      break;
    case MissPath::kRemoteBufferThenStorage:
      CB_CHECK(storage_link != nullptr);
      CB_CHECK(storage_service != nullptr);
      CB_CHECK(remote_buffer != nullptr);
      break;
  }
}

sim::FastCall<void> ComputeNode::ChargeCpu(sim::SimTime demand) {
  if (!recorder_->enabled()) return cpu_->Consume(demand);
  return ChargeCpuTraced(demand);
}

sim::Task<void> ComputeNode::ChargeCpuTraced(sim::SimTime demand) {
  obs::CachedSpanScope cpu_span(recorder_, env_, trace_track(),
                                obs::Layer::kCpu, "cpu.charge");
  co_await cpu_->Consume(demand);
}

util::Status ComputeNode::Admit() {
  if (shedding_) {
    ++shed_rejects_;
    return Status::ResourceExhausted("shedding load");
  }
  return Status::OK();
}

void ComputeNode::EnableFetchPolicy(const FetchPolicy& policy, uint64_t seed) {
  fetch_policy_ = policy;
  fetch_policy_.enabled = true;
  // Dedicated stream: backoff jitter must never perturb workload draws.
  fetch_rng_ = util::Pcg32(seed, 0xfe7c4b0ffULL);
}

sim::SimTime ComputeNode::EstimateMissDelay(storage::PageId pid) const {
  switch (config_.miss_path) {
    case MissPath::kLocalDisk:
      return local_disk_->EstimatedReadDelay(BufferPool::kPageBytes);
    case MissPath::kDisaggregatedStorage:
      return storage_link_->EstimatedTransferDelay(BufferPool::kPageBytes) +
             storage_service_->EstimatedReadDelay(BufferPool::kPageBytes);
    case MissPath::kRemoteBufferThenStorage:
      if (remote_buffer_->Contains(pid)) {
        return remote_buffer_->EstimatedFetchDelay();
      }
      return storage_link_->EstimatedTransferDelay(BufferPool::kPageBytes) +
             storage_service_->EstimatedReadDelay(BufferPool::kPageBytes);
  }
  return sim::SimTime{0};
}

sim::SimTime ComputeNode::BackoffDelay(int attempt) {
  int64_t us = fetch_policy_.backoff_base.us
               << std::min(attempt, 20);  // 2^attempt, overflow-safe
  us = std::min(us, fetch_policy_.backoff_cap.us);
  us += static_cast<int64_t>(static_cast<double>(us) * fetch_policy_.jitter *
                             fetch_rng_.NextDouble());
  return sim::SimTime{us};
}

sim::Task<util::Status> ComputeNode::AwaitFetchSlot(storage::PageId pid) {
  for (int attempt = 0;; ++attempt) {
    if (EstimateMissDelay(pid) <= fetch_policy_.deadline) {
      co_return Status::OK();
    }
    ++fetch_timeouts_;
    if (attempt >= fetch_policy_.max_retries) {
      co_return Status::Unavailable("fetch timed out");
    }
    co_await env_->Delay(BackoffDelay(attempt));
    if (!available_) co_return Status::Unavailable(config_.name + " down");
  }
}

bool ComputeNode::DirtyThrottled(storage::PageId pid) const {
  // The ratio AccessPageTask computes right after its MarkDirty(pid).
  int64_t dirty = buffer_.dirty_pages() + (buffer_.IsDirty(pid) ? 0 : 1);
  double dirty_ratio = static_cast<double>(dirty) /
                       static_cast<double>(buffer_.capacity_pages());
  return dirty_ratio > config_.dirty_throttle_ratio;
}

sim::FastCall<util::Status> ComputeNode::AccessPage(storage::PageId page,
                                                    bool for_write) {
  // IsResident probes without counting, so a page that turns out to need
  // the coroutine is touched (and counted) exactly once, there.
  storage::PageId pid = Offset(page);
  bool dirties = for_write && config_.write_back;
  if (available_ && buffer_.IsResident(pid) &&
      !(dirties && DirtyThrottled(pid))) {
    buffer_.Touch(pid);
    if (dirties) buffer_.MarkDirty(pid);
    return Status::OK();
  }
  return AccessPageTask(page, for_write);
}

sim::Task<util::Status> ComputeNode::AccessPageTask(storage::PageId page,
                                                    bool for_write) {
  if (!available_) co_return Status::Unavailable(config_.name + " down");
  storage::PageId pid = Offset(page);

  if (!buffer_.Touch(pid)) {
    // Miss: pay the architecture's miss path, including its CPU cost —
    // full page-processing for disk/storage reads, near-free for
    // one-sided RDMA reads from the remote buffer pool.
    if (fetch_policy_.enabled) {
      util::Status slot = co_await AwaitFetchSlot(pid);
      if (!slot.ok()) co_return slot;
    }
    ++storage_reads_;
    switch (config_.miss_path) {
      case MissPath::kLocalDisk: {
        obs::CachedSpanScope miss_span(recorder_, env_, trace_track(),
                                       obs::Layer::kBuffer,
                                       "buf.miss.local_disk");
        co_await cpu_->Consume(config_.miss_cpu);
        co_await local_disk_->Read(BufferPool::kPageBytes);
        break;
      }
      case MissPath::kDisaggregatedStorage: {
        obs::CachedSpanScope miss_span(recorder_, env_, trace_track(),
                                       obs::Layer::kBuffer, "buf.miss.storage");
        co_await cpu_->Consume(config_.miss_cpu);
        co_await storage_link_->Transfer(BufferPool::kPageBytes);
        co_await storage_service_->ReadPage(BufferPool::kPageBytes);
        break;
      }
      case MissPath::kRemoteBufferThenStorage:
        if (remote_buffer_->Contains(pid)) {
          obs::CachedSpanScope miss_span(recorder_, env_, trace_track(),
                                         obs::Layer::kBuffer,
                                         "buf.miss.remote_hit");
          co_await cpu_->Consume(config_.remote_hit_cpu);
          co_await remote_buffer_->Fetch(pid);
        } else {
          obs::CachedSpanScope miss_span(recorder_, env_, trace_track(),
                                         obs::Layer::kBuffer,
                                         "buf.miss.storage_fallback");
          co_await cpu_->Consume(config_.miss_cpu);
          co_await storage_link_->Transfer(BufferPool::kPageBytes);
          co_await storage_service_->ReadPage(BufferPool::kPageBytes);
          remote_buffer_->Admit(pid);
        }
        break;
    }
    if (!available_) co_return Status::Unavailable(config_.name + " down");
    BufferPool::AdmitResult admitted = buffer_.Admit(pid);
    if (admitted.victim_dirty && config_.write_back) {
      // Write-back engine: evicting a dirty page forces a device write.
      obs::CachedSpanScope evict_span(recorder_, env_, trace_track(),
                                      obs::Layer::kBuffer, "buf.evict_write");
      co_await local_disk_->Write(BufferPool::kPageBytes);
    }
  }

  if (for_write && config_.write_back) {
    buffer_.MarkDirty(pid);
    // Dirty-ratio backpressure: past the throttle point every writer also
    // synchronously flushes one cold dirty page (PostgreSQL backend
    // flush). This is the mechanism behind RDS's throughput drop under
    // write-heavy, large-SF workloads (paper §III-B).
    double dirty_ratio = static_cast<double>(buffer_.dirty_pages()) /
                         static_cast<double>(buffer_.capacity_pages());
    if (dirty_ratio > config_.dirty_throttle_ratio) {
      std::vector<storage::PageId> victim = buffer_.TakeDirty(1);
      if (!victim.empty()) {
        ++backend_flushes_;
        obs::CachedSpanScope flush_span(recorder_, env_, trace_track(),
                                        obs::Layer::kBuffer,
                                        "buf.backend_flush");
        co_await local_disk_->Write(BufferPool::kPageBytes);
      }
    }
  }
  co_return Status::OK();
}

sim::Task<util::Status> ComputeNode::CommitRecords(
    const std::vector<storage::LogRecord>* records) {
  if (!config_.is_rw) {
    co_return Status::FailedPrecondition("commit on read-only node");
  }
  if (!available_) co_return Status::Unavailable(config_.name + " down");
  CB_CHECK(log_ != nullptr);
  obs::CachedSpanScope log_span(recorder_, env_, trace_track(),
                                obs::Layer::kLog, "log.commit");
  int64_t last_lsn = log_->AppendBatch(*records);
  co_await log_->WaitDurable(last_lsn);
  // Durability is the commit point: even if the node crashed the very next
  // instant, the records are on stable storage and already shipping to the
  // replicas, so the caller must apply them — returning an error here would
  // lose a durable commit and diverge primary and replica state.
  co_return Status::OK();
}

void ComputeNode::ApplyVcores(double vcores) {
  bool changed = vcores != allocated_vcores_;
  allocated_vcores_ = vcores;
  cpu_->SetCapacity(vcores);
  if (changed && config_.scaling_stall.us > 0 && available_) {
    // Connection-dropping resize: briefly unavailable while the instance
    // moves to its new size.
    available_ = false;
    env_->ScheduleCall(env_->Now() + config_.scaling_stall,
                       [this] { available_ = true; });
  }
  if (config_.memory_follows_vcores) {
    allocated_memory_gb_ = std::max(vcores * config_.memory_gb_per_vcore,
                                    config_.memory_gb_per_vcore * 0.5);
    int64_t buffer_bytes = static_cast<int64_t>(
        allocated_memory_gb_ * config_.buffer_fraction_of_memory *
        1024.0 * 1024.0 * 1024.0);
    buffer_.SetCapacity(std::max<int64_t>(buffer_bytes, 16LL << 20));
  }
}

ResourceVector ComputeNode::AllocatedResources() const {
  ResourceVector r;
  r.vcores = allocated_vcores_;
  r.memory_gb = allocated_memory_gb_;
  return r;
}

void ComputeNode::PromoteToRw(storage::TableSet* canonical,
                              storage::LogManager* log) {
  config_.is_rw = true;
  tables_ = canonical;
  log_ = log;
}

void ComputeNode::DemoteToRo(storage::TableSet* replica) {
  config_.is_rw = false;
  tables_ = replica;
  log_ = nullptr;
}

void ComputeNode::SetCapacityFraction(double fraction) {
  CB_CHECK(fraction > 0.0 && fraction <= 1.0);
  if (fraction != capacity_fraction_) {
    obs::EmitEvent(env_, obs_scope_, "capacity.fraction",
                   fraction < capacity_fraction_ ? "throttle" : "boost",
                   fraction);
    capacity_fraction_ = fraction;
  }
  cpu_->SetCapacity(allocated_vcores_ * fraction);
}

void ComputeNode::SetBufferBytes(int64_t bytes) {
  config_.buffer_bytes = bytes;
  buffer_.SetCapacity(bytes);
}

}  // namespace cloudybench::cloud

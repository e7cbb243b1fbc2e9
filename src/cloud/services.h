#ifndef CLOUDYBENCH_CLOUD_SERVICES_H_
#define CLOUDYBENCH_CLOUD_SERVICES_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/network.h"
#include "sim/environment.h"
#include "sim/task.h"
#include "storage/buffer_pool.h"
#include "storage/disk.h"
#include "storage/row.h"

namespace cloudybench::cloud {

/// The shared, disaggregated storage tier: a page store with a provisioned
/// IOPS budget and an N-way replication factor. The replication factor
/// multiplies billed storage (the paper observes CDB1's six-way replication
/// doubles its storage bill vs. the three-way systems) and the write
/// amplification of page/log writes.
class StorageService {
 public:
  struct Config {
    std::string name;
    double provisioned_iops = 3000;
    int replication_factor = 3;
    sim::SimTime read_latency = sim::Micros(250);
    sim::SimTime write_latency = sim::Micros(350);
  };

  StorageService(sim::Environment* env, Config config);

  StorageService(const StorageService&) = delete;
  StorageService& operator=(const StorageService&) = delete;

  /// Reads one page's bytes from the page store.
  sim::Task<void> ReadPage(int64_t bytes);
  /// Persists bytes; pays the replication write amplification.
  sim::Task<void> Write(int64_t bytes);

  storage::DiskDevice* device() { return &device_; }
  int replication_factor() const { return config_.replication_factor; }
  double provisioned_iops() const { return device_.provisioned_iops(); }

  /// Deterministic page-read estimate (graceful-degradation deadline input;
  /// reflects any fail-slow fault injected into the backing device).
  sim::SimTime EstimatedReadDelay(int64_t bytes) const {
    return device_.EstimatedReadDelay(bytes);
  }

 private:
  Config config_;
  storage::DiskDevice device_;
};

/// CDB4's disaggregated-memory tier: a large buffer pool shared by all
/// compute nodes over RDMA. Local-buffer misses that hit here cost an RDMA
/// fetch instead of a storage read; crucially, the pool *survives compute
/// node restarts*, which is what makes CDB4's fail-over and TPS recovery so
/// fast in the paper (§III-E).
class RemoteBufferPool {
 public:
  RemoteBufferPool(sim::Environment* env, int64_t capacity_bytes,
                   net::Link* rdma_link, sim::SimTime fetch_latency);

  RemoteBufferPool(const RemoteBufferPool&) = delete;
  RemoteBufferPool& operator=(const RemoteBufferPool&) = delete;

  bool Contains(storage::PageId page) const { return pool_.IsResident(page); }

  /// Fetches a resident page over RDMA into a local buffer.
  sim::Task<void> Fetch(storage::PageId page);

  /// Admits a page (after a storage read, or a committed write's
  /// invalidation refresh keeps it current).
  void Admit(storage::PageId page);

  /// Deploy-time warm-up (BufferPool::Prewarm): an empty pool records the
  /// pages as a cold segment and gives a page a frame on first use. Counts
  /// neither hits nor misses, so hit_rate() reflects only the traffic that
  /// follows.
  void Prewarm(std::span<const storage::PageRun> runs) { pool_.Prewarm(runs); }

  int64_t capacity_bytes() const { return pool_.capacity_bytes(); }
  int64_t resident_pages() const { return pool_.resident_pages(); }
  int64_t fetches() const { return fetches_; }
  double hit_rate() const { return pool_.hit_rate(); }

  /// Deterministic fetch estimate (RDMA link queue + fixed fetch latency).
  sim::SimTime EstimatedFetchDelay() const {
    return rdma_link_->EstimatedTransferDelay(storage::BufferPool::kPageBytes) +
           fetch_latency_;
  }

  /// Coherence traffic counter (cache-invalidation messages applied).
  int64_t invalidations() const { return invalidations_; }
  void CountInvalidation() { ++invalidations_; }

 private:
  sim::Environment* env_;
  storage::BufferPool pool_;
  net::Link* rdma_link_;
  sim::SimTime fetch_latency_;
  int64_t fetches_ = 0;
  int64_t invalidations_ = 0;
};

}  // namespace cloudybench::cloud

#endif  // CLOUDYBENCH_CLOUD_SERVICES_H_

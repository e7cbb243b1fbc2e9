#ifndef CLOUDYBENCH_CORE_SALES_WORKLOAD_H_
#define CLOUDYBENCH_CORE_SALES_WORKLOAD_H_

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "cloud/cluster.h"
#include "core/collector.h"
#include "sim/task.h"
#include "storage/synthetic_table.h"
#include "util/random.h"
#include "util/status.h"

namespace cloudybench {

/// The sales microservice schema (paper §II-A, Fig. 2): CUSTOMER, ORDERS and
/// ORDERLINE, with ORDERLINE an order of magnitude larger. At SF1 the raw
/// footprint is ~194 MB (matching the paper's dataset sizes; SF10 ~1.99 GB,
/// SF100 ~20.8 GB — served by the synthetic tables without materializing).
namespace sales {
inline constexpr int64_t kCustomersPerSf = 300'000;
inline constexpr int64_t kOrdersPerSf = 300'000;
inline constexpr int64_t kOrderlinesPerSf = 3'000'000;

inline constexpr const char* kCustomerTable = "customer";
inline constexpr const char* kOrdersTable = "orders";
inline constexpr const char* kOrderlineTable = "orderline";

/// Order status values (O_STATUS).
inline constexpr int32_t kStatusNew = 0;
inline constexpr int32_t kStatusPaid = 1;

std::vector<storage::TableSchema> Schemas();
}  // namespace sales

/// Parameter access distributions: uniform substitution and "latest-k"
/// (paper §II-B, where skew correlates with data freshness), plus a
/// YCSB-style Zipf option — the paper notes realistic access is skewed;
/// Zipf gives a tunable long-tail skew over the whole id space.
enum class AccessDistribution { kUniform, kLatest, kZipf };

/// Mix and distribution of one workload stream.
struct SalesWorkloadConfig {
  /// Relative weights of T1:T2:T3:T4. Paper presets:
  ///   read-only (0,0,100,0) · read-write (15,5,80,0) · write-only (100,0,0,0)
  std::array<int, 4> ratios{15, 5, 80, 0};
  AccessDistribution distribution = AccessDistribution::kUniform;
  /// Window for the latest-k distribution (latest-10 in the paper).
  int64_t latest_k = 10;
  /// Skew for the Zipf distribution (YCSB default 0.99).
  double zipf_theta = 0.99;
  /// Route read-only transactions (T3) to RO replicas.
  bool route_reads_to_replicas = true;
  /// Pin T3 to the first replica even while it is down (clients connected
  /// to a specific replica endpoint). Used by the RO fail-over evaluation
  /// so the outage is visible instead of masked by fallback routing.
  bool sticky_replica = false;
  /// Spread T3 across *all* nodes including the RW (proxy-style balancing);
  /// the E2 scale-out evaluation uses this so each added RO node adds
  /// aggregate read capacity.
  bool spread_reads_all_nodes = false;
  uint64_t seed = 42;

  static SalesWorkloadConfig ReadOnly();
  static SalesWorkloadConfig ReadWrite();
  static SalesWorkloadConfig WriteOnly();
  /// Insert/update/delete mix for the lag-time evaluation (§III-F), given
  /// percentages of T1 (insert), T2 (update), T4 (delete).
  static SalesWorkloadConfig IudMix(int insert_pct, int update_pct,
                                    int delete_pct);
};

/// A workload an evaluator can drive: owns the choice of transaction, its
/// execution against a cluster, and routing. Implementations: the sales
/// microservice below, and the SysBench-lite / TPC-C-lite baselines.
class TransactionSet {
 public:
  virtual ~TransactionSet() = default;

  /// Tables the cluster must be loaded with.
  virtual std::vector<storage::TableSchema> Schemas() const = 0;

  /// Base RNG seed for the workers driving this workload.
  virtual uint64_t Seed() const { return 1; }

  /// Root seed for the next driver constructed against this set with the
  /// derive-from-workload default (seed 0). Each call hands out a distinct
  /// stream-split root (Seed() × a per-set manager nonce), so two managers
  /// driving the same TransactionSet never reuse worker seed streams while
  /// the workload config's seed still fully determines the run — the nonce
  /// sequence depends only on construction order, which is deterministic
  /// per experiment cell.
  uint64_t NextManagerSeed() {
    return util::SplitSeed(Seed(), util::kManagerStream, manager_nonce_++);
  }

  /// Runs one complete transaction (begin..commit/abort) against `cluster`,
  /// reporting its type through `type_out`. The returned status is the
  /// client-visible outcome.
  virtual sim::Task<util::Status> RunOne(cloud::Cluster* cluster,
                                         util::Pcg32& rng,
                                         TxnType* type_out) = 0;

 private:
  uint64_t manager_nonce_ = 0;
};

/// The paper's T1-T4 sales transactions (Table II):
///   T1 New Orderline      INSERT INTO orderline VALUES (DEFAULT, ...)
///   T2 Order Payment      SELECT order FOR UPDATE; UPDATE orders SET
///                         status='PAID'; UPDATE customer SET credit=credit+?
///   T3 Order Status       SELECT ... FROM orders WHERE O_ID = ?
///   T4 Orderline Deletion DELETE FROM orderline WHERE OL_ID = ?
class SalesTransactionSet : public TransactionSet {
 public:
  explicit SalesTransactionSet(SalesWorkloadConfig config);

  std::vector<storage::TableSchema> Schemas() const override;
  /// Not a coroutine: returns the chosen transaction's own Task.
  sim::Task<util::Status> RunOne(cloud::Cluster* cluster, util::Pcg32& rng,
                                 TxnType* type_out) override;

  uint64_t Seed() const override { return config_.seed; }
  const SalesWorkloadConfig& config() const { return config_; }
  /// Sum of O_TOTALAMOUNT over every committed T2 — the amount the
  /// workload has moved into customer credit (consistency tests compare
  /// this against the database's aggregate credit growth).
  double total_paid_amount() const { return total_paid_amount_; }

 private:
  /// Resolves the three sales tables' ids on the first RunOne. Ids are
  /// assigned by registration order, and every cluster a set drives is
  /// loaded from its Schemas() (the ERP set registers the sales tables
  /// first), so one resolution serves every node and every cluster; each
  /// operation then calls FindById on its node's *current* TableSet, which
  /// changes at failover.
  void ResolveTables(cloud::Cluster* cluster);
  TxnType PickType(util::Pcg32& rng) const;
  int64_t PickOrderId(cloud::Cluster* cluster, util::Pcg32& rng);

  sim::Task<util::Status> RunNewOrderline(cloud::Cluster* cluster,
                                          util::Pcg32& rng);
  sim::Task<util::Status> RunOrderPayment(cloud::Cluster* cluster,
                                          util::Pcg32& rng);
  sim::Task<util::Status> RunOrderStatus(cloud::Cluster* cluster,
                                         util::Pcg32& rng);
  sim::Task<util::Status> RunOrderlineDeletion(cloud::Cluster* cluster,
                                               util::Pcg32& rng);

  SalesWorkloadConfig config_;
  int ratio_total_;
  storage::TableId customer_id_ = -1;  // -1 until ResolveTables
  storage::TableId orders_id_ = -1;
  storage::TableId orderline_id_ = -1;
  size_t read_rr_ = 0;
  std::unique_ptr<util::LatestKChooser> latest_;
  std::unique_ptr<util::ZipfGenerator> zipf_;
  std::deque<int64_t> pending_deletes_;
  double total_paid_amount_ = 0;
};

}  // namespace cloudybench

#endif  // CLOUDYBENCH_CORE_SALES_WORKLOAD_H_

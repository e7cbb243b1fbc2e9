#include "core/sales_workload.h"

#include <algorithm>

#include "util/logging.h"

namespace cloudybench {

namespace {
using cloud::ComputeNode;
using storage::Row;
using storage::SyntheticTable;
using storage::TableSchema;
using util::Status;
}  // namespace

namespace sales {

std::vector<TableSchema> Schemas() {
  std::vector<TableSchema> schemas(3);

  // CUSTOMER(C_ID, C_NAME, C_ADDRESS, C_CREDIT, C_UPDATEDDATE): ~96 B/row.
  schemas[0].name = kCustomerTable;
  schemas[0].base_rows_per_sf = kCustomersPerSf;
  schemas[0].row_bytes = 96;
  schemas[0].generator = [](int64_t key) {
    Row r;
    r.key = key;
    r.amount = 1000.0;  // C_CREDIT
    r.updated = 0;      // C_UPDATEDDATE
    return r;
  };

  // ORDERS(O_ID, O_C_ID, O_DATE, O_STATUS, O_TOTALAMOUNT, O_UPDATEDDATE).
  schemas[1].name = kOrdersTable;
  schemas[1].base_rows_per_sf = kOrdersPerSf;
  schemas[1].row_bytes = 64;
  schemas[1].generator = [](int64_t key) {
    Row r;
    r.key = key;
    r.ref_a = key % kCustomersPerSf;                    // O_C_ID
    r.ref_b = key * 37 % 86400;                         // O_DATE
    r.status = kStatusNew;                              // O_STATUS
    r.amount = 10.0 + static_cast<double>(key % 990);   // O_TOTALAMOUNT
    return r;
  };

  // ORDERLINE(OL_ID, OL_O_ID, OL_I_ID, OL_AMOUNT): an order of magnitude
  // larger than the other two (paper scaling model).
  schemas[2].name = kOrderlineTable;
  schemas[2].base_rows_per_sf = kOrderlinesPerSf;
  schemas[2].row_bytes = 48;
  schemas[2].generator = [](int64_t key) {
    Row r;
    r.key = key;
    r.ref_a = key / 10;                                // OL_O_ID
    r.ref_b = key * 17 % 100000;                       // OL_I_ID
    r.amount = 1.0 + static_cast<double>(key % 99);    // OL_AMOUNT
    return r;
  };
  return schemas;
}

}  // namespace sales

SalesWorkloadConfig SalesWorkloadConfig::ReadOnly() {
  SalesWorkloadConfig cfg;
  cfg.ratios = {0, 0, 100, 0};
  return cfg;
}
SalesWorkloadConfig SalesWorkloadConfig::ReadWrite() {
  SalesWorkloadConfig cfg;
  cfg.ratios = {15, 5, 80, 0};
  return cfg;
}
SalesWorkloadConfig SalesWorkloadConfig::WriteOnly() {
  SalesWorkloadConfig cfg;
  cfg.ratios = {100, 0, 0, 0};
  return cfg;
}
SalesWorkloadConfig SalesWorkloadConfig::IudMix(int insert_pct, int update_pct,
                                                int delete_pct) {
  SalesWorkloadConfig cfg;
  cfg.ratios = {insert_pct, update_pct, 0, delete_pct};
  return cfg;
}

SalesTransactionSet::SalesTransactionSet(SalesWorkloadConfig config)
    : config_(config) {
  ratio_total_ = 0;
  for (int r : config_.ratios) {
    CB_CHECK_GE(r, 0);
    ratio_total_ += r;
  }
  CB_CHECK_GT(ratio_total_, 0) << "all transaction ratios are zero";
}

std::vector<TableSchema> SalesTransactionSet::Schemas() const {
  return sales::Schemas();
}

TxnType SalesTransactionSet::PickType(util::Pcg32& rng) const {
  int pick = static_cast<int>(rng.NextBounded(static_cast<uint32_t>(ratio_total_)));
  for (int i = 0; i < 4; ++i) {
    pick -= config_.ratios[static_cast<size_t>(i)];
    if (pick < 0) return static_cast<TxnType>(i);
  }
  return TxnType::kOrderStatus;
}

void SalesTransactionSet::ResolveTables(cloud::Cluster* cluster) {
  const storage::TableSet* tables = cluster->canonical();
  for (auto [name, id] : {std::pair{sales::kCustomerTable, &customer_id_},
                          std::pair{sales::kOrdersTable, &orders_id_},
                          std::pair{sales::kOrderlineTable, &orderline_id_}}) {
    SyntheticTable* table = tables->Find(name);
    CB_CHECK(table != nullptr) << "sales table '" << name << "' not loaded";
    *id = table->id();
  }
}

int64_t SalesTransactionSet::PickOrderId(cloud::Cluster* cluster,
                                         util::Pcg32& rng) {
  SyntheticTable* orders = cluster->canonical()->FindById(orders_id_);
  if (config_.distribution == AccessDistribution::kLatest) {
    if (latest_ == nullptr) {
      latest_ = std::make_unique<util::LatestKChooser>(config_.latest_k,
                                                       orders->max_key());
    }
    return latest_->Next(rng);
  }
  if (config_.distribution == AccessDistribution::kZipf) {
    if (zipf_ == nullptr) {
      zipf_ = std::make_unique<util::ZipfGenerator>(
          static_cast<uint64_t>(orders->base_count()), config_.zipf_theta);
    }
    // Rank 0 is hottest; place the hot set at the fresh end of the id
    // space so skew correlates with recency, like latest-k.
    return orders->base_count() - 1 -
           static_cast<int64_t>(zipf_->Next(rng));
  }
  return rng.NextInRange(0, orders->base_count() - 1);
}

sim::Task<util::Status> SalesTransactionSet::RunOne(cloud::Cluster* cluster,
                                                    util::Pcg32& rng,
                                                    TxnType* type_out) {
  if (orders_id_ < 0) ResolveTables(cluster);
  TxnType type = PickType(rng);
  *type_out = type;
  switch (type) {
    case TxnType::kNewOrderline:
      return RunNewOrderline(cluster, rng);
    case TxnType::kOrderPayment:
      return RunOrderPayment(cluster, rng);
    case TxnType::kOrderlineDeletion:
      return RunOrderlineDeletion(cluster, rng);
    case TxnType::kOrderStatus:
    case TxnType::kOther:
      break;
  }
  CB_CHECK(type == TxnType::kOrderStatus) << "unreachable transaction type";
  return RunOrderStatus(cluster, rng);
}

/// T1: INSERT INTO orderline VALUES (DEFAULT, ?, ?, ?, ?)
sim::Task<util::Status> SalesTransactionSet::RunNewOrderline(
    cloud::Cluster* cluster, util::Pcg32& rng) {
  ComputeNode* node = cluster->rw();
  txn::TxnManager& mgr = node->txn();
  SyntheticTable* orderline = node->tables()->FindById(orderline_id_);

  txn::Transaction txn = mgr.Begin(static_cast<int32_t>(TxnType::kNewOrderline));
  Row row;
  row.key = orderline->AllocateKey();  // the DEFAULT serial column
  row.ref_a = PickOrderId(cluster, rng);
  row.ref_b = rng.NextInRange(0, 99999);
  row.amount = 1.0 + static_cast<double>(rng.NextBounded(99));
  Status s = co_await mgr.Insert(&txn, orderline, row);
  if (s.ok()) s = co_await mgr.Commit(&txn);
  if (!s.ok() && txn.active()) mgr.Abort(&txn);
  if (s.ok()) {
    pending_deletes_.push_back(row.key);
    if (latest_ != nullptr) latest_->Observe(row.ref_a);
  }
  co_return s;
}

/// T2: find the order (FOR UPDATE), set it PAID, credit the customer.
sim::Task<util::Status> SalesTransactionSet::RunOrderPayment(
    cloud::Cluster* cluster, util::Pcg32& rng) {
  ComputeNode* node = cluster->rw();
  txn::TxnManager& mgr = node->txn();
  SyntheticTable* orders = node->tables()->FindById(orders_id_);
  SyntheticTable* customer = node->tables()->FindById(customer_id_);

  txn::Transaction txn = mgr.Begin(static_cast<int32_t>(TxnType::kOrderPayment));
  int64_t order_id = PickOrderId(cluster, rng);
  Row order;
  // (1) SELECT O_ID, O_C_ID, O_TOTALAMOUNT, O_UPDATEDDATE ... FOR UPDATE.
  // Locking the order exclusively up front keeps T2 deadlock-free
  // (ORDERS is always locked before CUSTOMER).
  Status s = co_await mgr.Get(&txn, orders, order_id, &order,
                              /*for_update=*/true);
  if (s.ok()) {
    // (2) UPDATE orders SET O_UPDATEDDATE=?, O_STATUS='PAID'.
    order.status = sales::kStatusPaid;
    order.updated = node->env()->Now().us;
    s = co_await mgr.Update(&txn, orders, order);
  }
  if (s.ok()) {
    // (3) UPDATE customer SET C_CREDIT = C_CREDIT + ?, C_UPDATEDDATE = ?.
    Row cust;
    s = co_await mgr.Get(&txn, customer, order.ref_a, &cust,
                         /*for_update=*/true);
    if (s.ok()) {
      cust.amount += order.amount;
      cust.updated = node->env()->Now().us;
      s = co_await mgr.Update(&txn, customer, cust);
    }
  }
  if (s.ok()) s = co_await mgr.Commit(&txn);
  if (!s.ok() && txn.active()) mgr.Abort(&txn);
  if (s.ok()) {
    total_paid_amount_ += order.amount;
    if (latest_ != nullptr) latest_->Observe(order_id);
  }
  co_return s;
}

/// T3: SELECT O_ID, O_DATE, O_STATUS FROM orders WHERE O_ID = ? — read-only,
/// routed to an RO replica when available.
sim::Task<util::Status> SalesTransactionSet::RunOrderStatus(
    cloud::Cluster* cluster, util::Pcg32& rng) {
  ComputeNode* node;
  if (config_.spread_reads_all_nodes) {
    size_t total = 1 + cluster->ro_count();
    size_t pick = read_rr_++ % total;
    node = pick == 0 ? cluster->rw() : cluster->ro(pick - 1);
    if (!node->available()) node = cluster->RouteRead();
  } else if (config_.sticky_replica && cluster->ro_count() > 0) {
    node = cluster->ro(0);
  } else if (config_.route_reads_to_replicas) {
    node = cluster->RouteRead();
  } else {
    node = cluster->rw();
  }
  txn::TxnManager& mgr = node->txn();
  SyntheticTable* orders = node->tables()->FindById(orders_id_);

  txn::Transaction txn = mgr.Begin(static_cast<int32_t>(TxnType::kOrderStatus));
  Row order;
  Status s = co_await mgr.Get(&txn, orders, PickOrderId(cluster, rng), &order);
  if (s.IsNotFound()) s = Status::OK();  // replica may lag behind inserts
  if (s.ok() && txn.active()) {
    s = co_await mgr.Commit(&txn);
  } else if (txn.active()) {
    mgr.Abort(&txn);
  }
  co_return s;
}

/// T4: DELETE FROM orderline WHERE OL_ID = ? — deletes what T1 inserted
/// (falling back to base rows so delete-only mixes keep running).
sim::Task<util::Status> SalesTransactionSet::RunOrderlineDeletion(
    cloud::Cluster* cluster, util::Pcg32& rng) {
  ComputeNode* node = cluster->rw();
  txn::TxnManager& mgr = node->txn();
  SyntheticTable* orderline = node->tables()->FindById(orderline_id_);

  int64_t target;
  if (!pending_deletes_.empty()) {
    target = pending_deletes_.front();
    pending_deletes_.pop_front();
  } else {
    target = rng.NextInRange(0, orderline->base_count() - 1);
  }

  txn::Transaction txn = mgr.Begin(static_cast<int32_t>(TxnType::kOrderlineDeletion));
  Status s = co_await mgr.Delete(&txn, orderline, target);
  if (s.IsNotFound()) {
    // Row already gone (another worker's delete): commit the no-op, like
    // a DELETE statement matching zero rows.
    s = Status::OK();
  }
  if (s.ok() && txn.active()) {
    s = co_await mgr.Commit(&txn);
  } else if (txn.active()) {
    mgr.Abort(&txn);
  }
  co_return s;
}

}  // namespace cloudybench

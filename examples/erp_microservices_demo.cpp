// Full-ERP demo: runs all three microservices of the paper's Fig. 2 —
// Sales, Inventory and Manufacturing — as one shared-schema workload
// against a chosen SUT, and reports per-service activity plus end-state
// invariants (work orders completed, stock mutated, orders paid).

#include <cstdio>

#include "core/collector.h"
#include "core/microservices.h"
#include "core/workload_manager.h"
#include "runner/oltp_cell.h"
#include "sut/profiles.h"

using namespace cloudybench;

int main() {
  util::SetLogLevel(util::LogLevel::kWarning);

  ErpWorkloadConfig erp_cfg;
  erp_cfg.sales_pct = 50;
  erp_cfg.inventory_pct = 30;
  erp_cfg.manufacturing_pct = 20;
  ErpTransactionSet workload(erp_cfg);
  runner::CellSpec spec;  // SF1, pinned at max capacity
  spec.sut = sut::SutKind::kCdb4;
  spec.n_ro = 1;
  runner::CellDeployment rig(spec, workload.Schemas());
  sim::Environment& env = rig.env;
  cloud::Cluster& cluster = *rig.cluster;

  PerformanceCollector collector(&env);
  collector.Start();
  WorkloadManager manager(&env, &cluster, &workload, &collector);
  manager.SetConcurrency(120);
  env.RunFor(sim::Seconds(10));
  manager.StopAll();
  env.RunFor(sim::Seconds(5));  // drain replication

  std::printf("ERP microservices demo — CDB4, 120 clients, 10 s\n\n");
  std::printf("  total throughput   %8.0f TPS\n",
              collector.MeanTps(1, 10));
  std::printf("  commits / aborts   %8lld / %lld\n",
              static_cast<long long>(collector.commits()),
              static_cast<long long>(collector.aborts()));
  std::printf("  sales transactions %8lld (T1-T4)\n",
              static_cast<long long>(
                  collector.commits() -
                  collector.commits_of(TxnType::kOther)));
  std::printf("  inventory+mfg      %8lld (T5-T8)\n",
              static_cast<long long>(collector.commits_of(TxnType::kOther)));

  storage::TableSet* db = cluster.canonical();
  storage::SyntheticTable* workorder = db->Find(erp::kWorkorderTable);
  storage::SyntheticTable* stock = db->Find(erp::kStockTable);
  storage::SyntheticTable* orders = db->Find(sales::kOrdersTable);
  std::printf("\n  work orders created     %lld\n",
              static_cast<long long>(workorder->live_rows() -
                                     erp::kInitialWorkordersPerSf));
  std::printf("  still open              %zu\n", workload.open_workorders());
  std::printf("  stock rows mutated      %zu\n", stock->overlay_rows());
  std::printf("  orders paid             %zu\n", orders->overlay_rows());
  std::printf("\n  replica in sync: %s\n",
              cluster.replayer(0)->applied_lsn() ==
                      cluster.log_manager()->appended_lsn()
                  ? "yes"
                  : "no");
  return 0;
}

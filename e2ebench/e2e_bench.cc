// End-to-end testbed benchmark. Runs one named workload — a matrix of
// CloudyBench cells — on runner::MatrixRunner, repeating the whole matrix
// until a host-time budget is spent, and prints end-to-end metrics
// (--trace 0) or per-layer metrics (--trace 1) as the last stdout line:
//
//   {"correct":true,"attempted":15,"failed":0,"metrics":{...}}
//
// Every cell goes through the product's own entry points
// (runner::CellDeployment, OltpEvaluator::Run, load::OpenLoopDriver::Run)
// and is timed from outside: spans around each call, public counters read
// after the simulation and before teardown. Result rows are checked against
// recorded expected rows (or, for a seed without a recording, against the
// product path runner::RunOltpCell or the run's first pass). README.md in
// this directory documents the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/cluster.h"
#include "cloud/degradation.h"
#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "fault/fault.h"
#include "fault/injector.h"
#include "load/arrival.h"
#include "load/open_loop.h"
#include "obs/timeline.h"
#include "runner/matrix.h"
#include "runner/oltp_cell.h"
#include "runner/runner.h"
#include "sim/environment.h"
#include "sut/profiles.h"
#include "util/logging.h"

#ifndef E2EBENCH_BUILD_TYPE
#define E2EBENCH_BUILD_TYPE "unknown"
#endif
#ifndef E2EBENCH_CXX_FLAGS
#define E2EBENCH_CXX_FLAGS ""
#endif

namespace cloudybench::e2ebench {
namespace {

using Clock = std::chrono::steady_clock;
using Counts = std::map<std::string, double>;

double UsSince(Clock::time_point origin, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - origin).count();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class DriverKind { kClosed, kOpen };

/// One named workload: the cell matrix plus how each cell is driven.
struct Workload {
  std::string name;
  DriverKind driver = DriverKind::kClosed;
  int jobs = 1;
  /// Closed loop: parameter access distribution of the sales mix.
  AccessDistribution distribution = AccessDistribution::kUniform;
  /// Open loop: Poisson arrival rate, drain after the horizon, fault plan.
  double arrival_rate = 0;
  sim::SimTime drain = sim::Seconds(2);
  std::string fault_plan;
  std::vector<runner::CellSpec> cells;
};

/// `small` is each workload's smallest size (two SUTs, SF1, short windows):
/// the self-test runs it to check the metric surface quickly.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                     bool small) {
  Workload w;
  w.name = name;
  std::vector<sut::SutKind> suts = sut::AllSuts();
  if (small) suts.resize(2);
  auto base = [&](sut::SutKind kind) {
    runner::CellSpec spec;
    spec.sut = kind;
    spec.n_ro = 1;
    spec.seed = seed;
    return spec;
  };
  if (name == "deploy_sf100") {
    // Deploy-dominated: SF100 prewarm dwarfs a ~2 s simulated window.
    // Heaviest SUTs first (CDB4, then CDB3): the two workers start on the
    // two largest deployments together, so the process's peak memory does
    // not depend on which cells happen to overlap later.
    w.jobs = 2;
    std::reverse(suts.begin(), suts.end());
    for (sut::SutKind kind : suts) {
      for (const char* pattern : {"RO", "RW", "WO"}) {
        runner::CellSpec spec = base(kind);
        spec.scale_factor = small ? 1 : 100;
        spec.concurrency = 100;
        spec.pattern = pattern;
        spec.warmup = sim::Seconds(1);
        spec.measure = sim::Seconds(1);
        w.cells.push_back(spec);
      }
    }
  } else if (name == "closed_sf1_latest") {
    // Simulation-dominated, contended write path: latest-10 skew puts most
    // writers on the same few orders.
    w.distribution = AccessDistribution::kLatest;
    for (sut::SutKind kind : suts) {
      runner::CellSpec spec = base(kind);
      spec.scale_factor = 1;
      spec.concurrency = 200;
      spec.pattern = "RW";
      spec.warmup = sim::Seconds(1);
      spec.measure = sim::Seconds(small ? 1 : 10);
      w.cells.push_back(spec);
    }
  } else if (name == "open_sf10_ro") {
    // Open-loop read-only load against buffers smaller than the data, with
    // an RO crash halfway through and degradation armed.
    w.driver = DriverKind::kOpen;
    w.arrival_rate = small ? 2000 : 30000;
    w.fault_plan = small ? "kind=crash,target=ro,at=1s"
                         : "kind=crash,target=ro,at=5s";
    for (sut::SutKind kind : suts) {
      runner::CellSpec spec = base(kind);
      spec.scale_factor = small ? 1 : 10;
      spec.concurrency = 0;
      spec.pattern = "open-RO";
      spec.warmup = sim::SimTime{0};
      spec.measure = sim::Seconds(small ? 2 : 10);
      w.cells.push_back(spec);
    }
  } else {
    return std::nullopt;
  }
  return w;
}

SalesWorkloadConfig SalesConfigForCell(const Workload& w,
                                       const runner::CellSpec& spec) {
  if (w.driver == DriverKind::kOpen) {
    SalesWorkloadConfig cfg = SalesWorkloadConfig::ReadOnly();
    cfg.seed = spec.seed;
    return cfg;
  }
  SalesWorkloadConfig cfg = runner::SalesConfigFor(spec);
  cfg.distribution = w.distribution;
  return cfg;
}

// ---------------------------------------------------------------------------
// Spans and counters recorded around one cell
// ---------------------------------------------------------------------------

struct Span {
  const char* name;
  int parent;  ///< index into CellProbe::spans, -1 for the root
  double start_us;
  double end_us;
};

/// Everything the benchmark measures about one cell. Each cell index has
/// its own probe, written only by the worker that runs the cell.
struct CellProbe {
  std::vector<Span> spans;
  std::vector<int> open;  ///< stack of unfinished spans
  Counts counts;

  double Ms(const char* name) const {
    double us = 0;
    for (const Span& s : spans) {
      if (std::string_view(s.name) == name) us += s.end_us - s.start_us;
    }
    return us / 1e3;
  }
};

/// RAII span over one call into a layer; times are host microseconds from
/// the pass origin.
class SpanScope {
 public:
  SpanScope(CellProbe* probe, const char* name, Clock::time_point origin)
      : probe_(probe), origin_(origin) {
    index_ = static_cast<int>(probe->spans.size());
    int parent = probe->open.empty() ? -1 : probe->open.back();
    probe->spans.push_back({name, parent, UsSince(origin, Clock::now()), 0});
    probe->open.push_back(index_);
  }
  ~SpanScope() {
    probe_->spans[static_cast<size_t>(index_)].end_us =
        UsSince(origin_, Clock::now());
    probe_->open.pop_back();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  CellProbe* probe_;
  Clock::time_point origin_;
  int index_ = 0;
};

/// A deployment built one public step at a time — the same calls
/// runner::CellDeployment's constructor makes — so the traced run can time
/// cluster construction, load and prewarm separately.
struct SplitDeployment {
  sim::Environment env;
  std::unique_ptr<cloud::Cluster> cluster;
  obs::TimelineSampler sampler{&env};
};

std::vector<cloud::ComputeNode*> Nodes(cloud::Cluster* cluster) {
  std::vector<cloud::ComputeNode*> nodes{cluster->rw()};
  for (size_t i = 0; i < cluster->ro_count(); ++i) {
    nodes.push_back(cluster->ro(i));
  }
  return nodes;
}

int64_t ResidentPages(cloud::Cluster* cluster) {
  int64_t pages = 0;
  for (cloud::ComputeNode* node : Nodes(cluster)) {
    pages += node->buffer().resident_pages();
  }
  if (cluster->remote_buffer() != nullptr) {
    pages += cluster->remote_buffer()->resident_pages();
  }
  return pages;
}

/// Per-layer public counters, read after the simulate call, before teardown.
void ReadLayerCounters(sim::Environment* env, cloud::Cluster* cluster,
                       Counts* c) {
  Counts& out = *c;
  out["sim.events"] = static_cast<double>(env->dispatched_events());
  for (cloud::ComputeNode* node : Nodes(cluster)) {
    out["lock.grants"] += static_cast<double>(node->locks().grants());
    out["lock.waits"] += static_cast<double>(node->locks().waits());
    out["lock.timeouts"] += static_cast<double>(node->locks().timeouts());
    out["buffer.hits"] += static_cast<double>(node->buffer().hits());
    out["buffer.misses"] += static_cast<double>(node->buffer().misses());
    out["buffer.forced_dirty_evictions"] +=
        static_cast<double>(node->buffer().forced_dirty_evictions());
    out["cloud.storage_reads"] += static_cast<double>(node->storage_reads());
  }
  out["buffer.remote_fetches"] =
      cluster->remote_buffer() != nullptr
          ? static_cast<double>(cluster->remote_buffer()->fetches())
          : 0.0;
  storage::LogManager* log = cluster->log_manager();
  out["wal.records"] = static_cast<double>(log->records_appended());
  out["wal.flush_batches"] = static_cast<double>(log->flush_batches());
  out["wal.chunk_allocs"] = static_cast<double>(log->chunk_allocs());
  for (storage::DiskDevice* disk :
       {cluster->local_disk(), cluster->log_device(),
        cluster->storage_service()->device()}) {
    if (disk == nullptr) continue;
    out["disk.reads"] += static_cast<double>(disk->reads());
    out["disk.writes"] += static_cast<double>(disk->writes());
  }
  out["repl.records_applied"] = 0;
  out["repl.backlog_end"] = 0;
  out["repl.arena_grows"] = 0;
  for (size_t i = 0; i < cluster->replayer_count(); ++i) {
    repl::Replayer* r = cluster->replayer(i);
    out["repl.records_applied"] += static_cast<double>(r->records_applied());
    out["repl.backlog_end"] += static_cast<double>(r->backlog());
    out["repl.arena_grows"] += static_cast<double>(r->arena_grows());
  }
  out["net.bytes"] = 0;
  out["net.messages"] = 0;
  for (const char* role : {"storage", "repl", "rdma"}) {
    for (net::Link* link : cluster->LinksByRole(role)) {
      out["net.bytes"] += static_cast<double>(link->bytes_transferred());
      out["net.messages"] += static_cast<double>(link->messages());
    }
  }
  out["cloud.fetch_timeouts"] =
      static_cast<double>(cluster->TotalFetchTimeouts());
  out["cloud.shed_rejects"] = static_cast<double>(cluster->TotalShedRejects());
  out["cloud.breaker_opens"] =
      cluster->degradation() != nullptr
          ? static_cast<double>(cluster->degradation()->breaker_opens())
          : 0.0;
}

// ---------------------------------------------------------------------------
// The benchmark's cell function
// ---------------------------------------------------------------------------

void FoldOltp(const OltpResult& r, cloud::Cluster* cluster,
              sim::Environment* env, runner::CellResult* out) {
  // Same columns, order and precision as runner::RunOltpCell; the
  // equivalence check (--check-equivalence) holds the two byte-identical.
  runner::CellResult& result = *out;
  result.AddMetric("tps", r.mean_tps, 0);
  result.AddMetric("p50_ms", r.p50_latency_ms, 2);
  result.AddMetric("p99_ms", r.p99_latency_ms, 2);
  result.AddMetric("commits", static_cast<double>(r.commits), 0);
  result.AddMetric("aborts", static_cast<double>(r.aborts), 0);
  result.AddMetric("cost_per_min", r.cost_per_minute.total(), 4);
  result.AddMetric("cost_cpu", r.cost_per_minute.cpu, 4);
  result.AddMetric("cost_mem", r.cost_per_minute.memory, 4);
  result.AddMetric("cost_storage", r.cost_per_minute.storage, 4);
  result.AddMetric("cost_iops", r.cost_per_minute.iops, 4);
  result.AddMetric("cost_net", r.cost_per_minute.network, 4);
  result.AddMetric("p_score", r.p_score, 0);
  result.AddMetric("buffer_hit_pct", r.buffer_hit_rate * 100.0, 1);
  cloud::ResourceVector alloc =
      cluster->meter().MeanAllocated(0, env->Now().ToSeconds());
  result.AddMetric("vcores", alloc.vcores, 0);
  result.AddMetric("memory_gb", alloc.memory_gb, 0);
  result.AddMetric("storage_gb", alloc.storage_gb, 1);
  result.AddMetric("iops", alloc.iops, 0);
  result.AddMetric("net_gbps", alloc.tcp_gbps + alloc.rdma_gbps, 0);
  result.sim_seconds = env->Now().ToSeconds();
}

void FoldOpen(const load::OpenLoopResult& r, const fault::FaultInjector& inj,
              cloud::Cluster* cluster, sim::Environment* env,
              runner::CellResult* out) {
  runner::CellResult& result = *out;
  result.AddMetric("offered_tps", r.offered_tps, 0);
  result.AddMetric("goodput_tps", r.goodput_tps, 0);
  result.AddMetric("commits", static_cast<double>(r.commits), 0);
  result.AddMetric("aborts", static_cast<double>(r.aborts), 0);
  result.AddMetric("unavail", static_cast<double>(r.unavailable), 0);
  result.AddMetric("incomplete", static_cast<double>(r.incomplete), 0);
  result.AddMetric("p50_ms", r.p50_ms, 2);
  result.AddMetric("p99_ms", r.p99_ms, 2);
  result.AddMetric("lag_p99_ms", r.lag_p99_ms, 2);
  result.AddMetric("inflight_hwm", static_cast<double>(r.inflight_hwm), 0);
  result.AddMetric("pool_hwm", static_cast<double>(r.session_pool_hwm), 0);
  result.AddMetric("faults_armed", static_cast<double>(inj.injected()), 0);
  result.AddMetric("fetch_timeouts",
                   static_cast<double>(cluster->TotalFetchTimeouts()), 0);
  result.AddMetric("shed_rejects",
                   static_cast<double>(cluster->TotalShedRejects()), 0);
  result.AddMetric(
      "breaker_opens",
      static_cast<double>(cluster->degradation()->breaker_opens()), 0);
  result.sim_seconds = env->Now().ToSeconds();
}

/// Runs one cell: deploy → simulate → fold → teardown, each in its own
/// span under "cell". Untraced cells deploy through runner::CellDeployment;
/// traced cells split the deploy into cloud.ctor / cloud.load /
/// cloud.prewarm.
runner::CellResult RunBenchCell(const runner::CellContext& ctx,
                                const Workload& w,
                                const fault::FaultPlan& faults, bool traced,
                                Clock::time_point origin, CellProbe* probe) {
  const runner::CellSpec& spec = ctx.spec;
  runner::CellResult result;
  SpanScope cell_span(probe, "cell", origin);
  SalesTransactionSet txns(SalesConfigForCell(w, spec));

  std::unique_ptr<runner::CellDeployment> plain;
  std::unique_ptr<SplitDeployment> split;
  sim::Environment* env = nullptr;
  cloud::Cluster* cluster = nullptr;
  {
    SpanScope deploy_span(probe, "deploy", origin);
    if (!traced) {
      plain = std::make_unique<runner::CellDeployment>(spec, txns.Schemas());
      env = &plain->env;
      cluster = plain->cluster.get();
    } else {
      CB_CHECK(!spec.serverless) << "split deploy covers provisioned cells";
      split = std::make_unique<SplitDeployment>();
      env = &split->env;
      {
        SpanScope s(probe, "cloud.ctor", origin);
        cloud::ClusterConfig cfg = sut::MakeProfile(spec.sut, spec.time_scale);
        if (spec.freeze_at_max) sut::FreezeAtMaxCapacity(&cfg);
        split->cluster =
            std::make_unique<cloud::Cluster>(env, cfg, spec.n_ro);
        cluster = split->cluster.get();
      }
      {
        SpanScope s(probe, "cloud.load", origin);
        cluster->Load(txns.Schemas(), spec.scale_factor);
      }
      {
        SpanScope s(probe, "cloud.prewarm", origin);
        cluster->PrewarmBuffers();
      }
      split->sampler.Start();
    }
  }
  probe->counts["cloud.prewarm_pages"] =
      static_cast<double>(ResidentPages(cluster));

  std::optional<fault::FaultInjector> injector;
  std::optional<OltpResult> oltp;
  std::optional<load::OpenLoopResult> open;
  {
    SpanScope s(probe, "simulate", origin);
    if (w.driver == DriverKind::kClosed) {
      OltpEvaluator::Options options;
      options.concurrency = spec.concurrency;
      options.warmup = spec.warmup;
      options.measure = spec.measure;
      options.metrics_export_path = ctx.metrics_path;
      oltp = OltpEvaluator::Run(env, cluster, &txns, options);
    } else {
      injector.emplace(env, cluster);
      cluster->EnableDegradation(cloud::DegradationPolicy{});
      injector->Arm(faults, env->Now());
      load::ArrivalSpec stream;
      stream.process = load::ArrivalProcess::kPoisson;
      stream.rate = w.arrival_rate;
      stream.tenant = "t0";
      load::ArrivalPlan plan;
      plan.streams.push_back(stream);
      load::OpenLoopOptions options;
      options.seed = spec.seed;
      options.horizon = spec.measure;
      options.drain = w.drain;
      options.metrics_export_path = ctx.metrics_path;
      open = load::OpenLoopDriver::Run(env, cluster, &txns, plan, options);
    }
  }

  Counts& c = probe->counts;
  ReadLayerCounters(env, cluster, &c);
  if (oltp) {
    c["core.txns"] = static_cast<double>(cluster->TotalCommits() +
                                         cluster->TotalAborts());
    c["core.aborts"] = static_cast<double>(cluster->TotalAborts());
  } else {
    c["core.txns"] =
        static_cast<double>(open->commits + open->aborts + open->unavailable);
    c["core.aborts"] = static_cast<double>(open->aborts);
    c["load.arrivals"] = static_cast<double>(open->arrivals);
    c["load.inflight_hwm"] = static_cast<double>(open->inflight_hwm);
    c["load.session_pool_hwm"] = static_cast<double>(open->session_pool_hwm);
    c["load.executing_hwm"] = static_cast<double>(open->executing_hwm);
    c["load.incomplete"] = static_cast<double>(open->incomplete);
    c["fault.injected"] = static_cast<double>(injector->injected());
    c["fault.cleared"] = static_cast<double>(injector->cleared());
  }

  {
    SpanScope s(probe, "fold", origin);
    if (oltp) {
      FoldOltp(*oltp, cluster, env, &result);
    } else {
      FoldOpen(*open, *injector, cluster, env, &result);
    }
  }
  {
    SpanScope s(probe, "teardown", origin);
    injector.reset();
    plain.reset();
    split.reset();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Passes over the matrix
// ---------------------------------------------------------------------------

struct PassResult {
  int jobs = 1;
  double wall_s = 0;
  std::vector<runner::CellResult> rows;
  std::vector<CellProbe> probes;
};

PassResult RunPass(const Workload& w, const fault::FaultPlan& faults,
                   bool traced) {
  PassResult pass;
  pass.probes.resize(w.cells.size());
  runner::RunnerOptions options;
  options.jobs = w.jobs;
  options.print_summary = false;
  runner::MatrixRunner runner(options);
  pass.jobs = runner.ResolveJobs(w.cells.size());
  Clock::time_point origin = Clock::now();
  pass.rows = runner.Run(w.cells, [&](const runner::CellContext& ctx) {
    return RunBenchCell(ctx, w, faults, traced, origin,
                        &pass.probes[ctx.index]);
  });
  pass.wall_s = UsSince(origin, Clock::now()) / 1e6;
  return pass;
}

/// Rows of the product path: runner::RunOltpCell on the same specs. Only
/// closed-loop workloads with the paper's uniform mix map onto it.
std::vector<std::string> ProductRows(const Workload& w) {
  runner::RunnerOptions options;
  options.jobs = w.jobs;
  options.print_summary = false;
  std::vector<std::string> rows;
  for (const runner::CellResult& r :
       runner::MatrixRunner(options).Run(w.cells, runner::RunOltpCell)) {
    rows.push_back(runner::ToJsonLine(r));
  }
  return rows;
}

bool ProductPathApplies(const Workload& w) {
  return w.driver == DriverKind::kClosed &&
         w.distribution == AccessDistribution::kUniform;
}

const char* const kMaxKeys[] = {"load.inflight_hwm", "load.session_pool_hwm",
                                "load.executing_hwm"};

/// Pass-level numbers: host times summed over the pass's cells, counters
/// summed (high-water marks: max) over cells, and the ratios derived from
/// them.
Counts PassNumbers(const PassResult& pass) {
  Counts n;
  std::vector<double> cell_ms;
  for (const CellProbe& p : pass.probes) {
    cell_ms.push_back(p.Ms("cell"));
    n["setup_ms"] += p.Ms("deploy");
    n["cloud.ctor_ms"] += p.Ms("cloud.ctor");
    n["cloud.load_ms"] += p.Ms("cloud.load");
    n["cloud.prewarm_ms"] += p.Ms("cloud.prewarm");
    n["cloud.teardown_ms"] += p.Ms("teardown");
    n["core.simulate_ms"] += p.Ms("simulate");
    n["core.fold_ms"] += p.Ms("fold");
    for (const auto& [key, value] : p.counts) {
      bool is_max = std::find(std::begin(kMaxKeys), std::end(kMaxKeys),
                              key) != std::end(kMaxKeys);
      n[key] = is_max ? std::max(n[key], value) : n[key] + value;
    }
  }
  double cells_sum_ms = 0;
  for (double ms : cell_ms) cells_sum_ms += ms;
  n["wall_s"] = pass.wall_s;
  n["setup_s"] = n["setup_ms"] / 1e3;
  n["cells_sum_s"] = cells_sum_ms / 1e3;
  n["txns_per_s"] = Ratio(n["core.txns"], n["core.simulate_ms"] / 1e3);
  n["runner.cells"] = static_cast<double>(pass.probes.size());
  n["runner.cell_ms_p50"] = Median(cell_ms);
  n["runner.cell_ms_max"] =
      cell_ms.empty() ? 0 : *std::max_element(cell_ms.begin(), cell_ms.end());
  n["runner.idle_s"] =
      std::max(0.0, pass.jobs * pass.wall_s - cells_sum_ms / 1e3);
  n["cloud.prewarm_ns_per_page"] =
      Ratio(n["cloud.prewarm_ms"] * 1e6, n["cloud.prewarm_pages"]);
  n["sim.ns_per_event"] =
      Ratio(n["core.simulate_ms"] * 1e6, n["sim.events"]);
  n["core.ns_per_txn"] = Ratio(n["core.simulate_ms"] * 1e6, n["core.txns"]);
  n["core.abort_ratio"] = Ratio(n["core.aborts"], n["core.txns"]);
  n["lock.wait_ratio"] = Ratio(n["lock.waits"], n["lock.grants"]);
  n["buffer.hit_ratio"] =
      Ratio(n["buffer.hits"], n["buffer.hits"] + n["buffer.misses"]);
  n["wal.records_per_flush"] =
      Ratio(n["wal.records"], n["wal.flush_batches"]);
  return n;
}

/// `key` of every pass.
std::vector<double> Values(const std::vector<Counts>& passes,
                           const std::string& key) {
  std::vector<double> v;
  for (const Counts& c : passes) {
    auto it = c.find(key);
    v.push_back(it == c.end() ? 0.0 : it->second);
  }
  return v;
}

double MedianOf(const std::vector<Counts>& passes, const std::string& key) {
  return Median(Values(passes, key));
}

/// The best pass. The host is shared and interference only ever slows a
/// pass down (by up to ~50% for several seconds at a time), so the fastest
/// pass of a run is far steadier across runs than the median pass.
double MinOf(const std::vector<Counts>& passes, const std::string& key) {
  std::vector<double> v = Values(passes, key);
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

double MaxOf(const std::vector<Counts>& passes, const std::string& key) {
  std::vector<double> v = Values(passes, key);
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

struct MetricDef {
  const char* name;
  const char* unit;
};

const MetricDef kEndToEnd[] = {{"wall_s", "s"},
                               {"setup_s", "s"},
                               {"txns_per_s", "1/s"},
                               {"peak_rss_mb", "MB"}};

const MetricDef kPerLayer[] = {
    {"runner.cells", "count"},
    {"runner.cell_ms_p50", "ms"},
    {"runner.cell_ms_max", "ms"},
    {"runner.idle_s", "s"},
    {"cloud.ctor_ms", "ms"},
    {"cloud.load_ms", "ms"},
    {"cloud.prewarm_ms", "ms"},
    {"cloud.teardown_ms", "ms"},
    {"cloud.prewarm_pages", "count"},
    {"cloud.prewarm_ns_per_page", "ns"},
    {"sim.events", "count"},
    {"sim.ns_per_event", "ns"},
    {"core.simulate_ms", "ms"},
    {"core.fold_ms", "ms"},
    {"core.txns", "count"},
    {"core.ns_per_txn", "ns"},
    {"core.abort_ratio", "ratio"},
    {"lock.grants", "count"},
    {"lock.waits", "count"},
    {"lock.wait_ratio", "ratio"},
    {"lock.timeouts", "count"},
    {"buffer.hits", "count"},
    {"buffer.misses", "count"},
    {"buffer.hit_ratio", "ratio"},
    {"buffer.forced_dirty_evictions", "count"},
    {"buffer.remote_fetches", "count"},
    {"wal.records", "count"},
    {"wal.flush_batches", "count"},
    {"wal.records_per_flush", "ratio"},
    {"wal.chunk_allocs", "count"},
    {"disk.reads", "count"},
    {"disk.writes", "count"},
    {"repl.records_applied", "count"},
    {"repl.backlog_end", "count"},
    {"repl.arena_grows", "count"},
    {"net.bytes", "bytes"},
    {"net.messages", "count"},
    {"cloud.storage_reads", "count"},
    {"cloud.fetch_timeouts", "count"},
    {"cloud.shed_rejects", "count"},
    {"cloud.breaker_opens", "count"},
    {"load.arrivals", "count"},
    {"load.inflight_hwm", "count"},
    {"load.session_pool_hwm", "count"},
    {"load.executing_hwm", "count"},
    {"load.incomplete", "count"},
    {"fault.injected", "count"},
    {"fault.cleared", "count"},
    {"obs.trace_overhead_ratio", "ratio"},
    {"cell_error_ratio", "ratio"},
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Expected rows
// ---------------------------------------------------------------------------

/// Reads "<seed>\t<ToJsonLine row>" lines; returns the rows of `seed` in
/// file order (empty when the seed has no recording).
std::vector<std::string> LoadExpected(const std::string& path, uint64_t seed) {
  std::vector<std::string> rows;
  if (path.empty()) return rows;
  std::ifstream in(path);
  std::string line;
  std::string prefix = std::to_string(seed) + "\t";
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) rows.push_back(line.substr(prefix.size()));
  }
  return rows;
}

/// Failed cells of one pass: a cell fails when it threw or returned !ok
/// (both give ok=false rows) or when its row differs from the expected one.
int CountFailures(const PassResult& pass,
                  const std::vector<std::string>& expected) {
  int failed = 0;
  for (size_t i = 0; i < pass.rows.size(); ++i) {
    const runner::CellResult& row = pass.rows[i];
    bool bad = !row.ok;
    if (i >= expected.size() || runner::ToJsonLine(row) != expected[i]) {
      bad = true;
    }
    if (bad) {
      std::fprintf(stderr, "e2ebench: cell %zu (%s) failed%s%s\n", i,
                   row.id.c_str(), row.error.empty() ? "" : ": ",
                   row.error.c_str());
      ++failed;
    }
  }
  return failed;
}

// ---------------------------------------------------------------------------
// Traced-run artifacts
// ---------------------------------------------------------------------------

void WriteSpans(const std::string& path,
                const std::vector<PassResult>& passes) {
  std::ofstream out(path, std::ios::trunc);
  for (size_t p = 0; p < passes.size(); ++p) {
    const PassResult& pass = passes[p];
    for (size_t i = 0; i < pass.probes.size(); ++i) {
      const std::vector<Span>& spans = pass.probes[i].spans;
      for (size_t s = 0; s < spans.size(); ++s) {
        out << "{\"pass\":" << p << ",\"cell\":"
            << JsonString(pass.rows[i].id) << ",\"span\":" << s
            << ",\"parent\":" << spans[s].parent
            << ",\"name\":" << JsonString(spans[s].name)
            << ",\"start_us\":" << JsonNumber(spans[s].start_us)
            << ",\"end_us\":" << JsonNumber(spans[s].end_us) << "}\n";
      }
    }
  }
}

/// Self time per span name (duration minus the direct children's), summed
/// over cells and averaged over passes.
std::map<std::string, double> SelfTimeMs(
    const std::vector<PassResult>& passes) {
  std::map<std::string, double> self;
  for (const PassResult& pass : passes) {
    for (const CellProbe& probe : pass.probes) {
      std::vector<double> us(probe.spans.size());
      for (size_t s = 0; s < probe.spans.size(); ++s) {
        us[s] = probe.spans[s].end_us - probe.spans[s].start_us;
      }
      for (size_t s = 0; s < probe.spans.size(); ++s) {
        int parent = probe.spans[s].parent;
        if (parent >= 0) {
          us[static_cast<size_t>(parent)] -= probe.spans[s].end_us -
                                             probe.spans[s].start_us;
        }
      }
      for (size_t s = 0; s < probe.spans.size(); ++s) {
        self[probe.spans[s].name] += us[s] / 1e3;
      }
    }
  }
  for (auto& [name, ms] : self) ms /= static_cast<double>(passes.size());
  return self;
}

void WriteCellLayers(const std::string& path, const PassResult& pass) {
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < pass.probes.size(); ++i) {
    const CellProbe& probe = pass.probes[i];
    out << "{\"cell\":" << JsonString(pass.rows[i].id);
    for (const char* span : {"deploy", "cloud.prewarm", "simulate", "cell"}) {
      out << ",\"" << span << "_ms\":" << JsonNumber(probe.Ms(span));
    }
    for (const auto& [key, value] : probe.counts) {
      out << "," << JsonString(key) << ":" << JsonNumber(value);
    }
    out << "}\n";
  }
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  bool small = false;
  int jobs = 0;  ///< > 0 overrides the workload's worker count
  std::string expected;
  std::string out_dir = ".";
  std::string record;
  std::string git_describe;
  bool check_equivalence = false;
};

[[noreturn]] void Usage(const char* argv0, const std::string& why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S "
               "--trace 0|1 [--small] [--jobs N] [--expected FILE] "
               "[--out DIR] [--record FILE] [--git-describe TEXT] "
               "[--check-equivalence]\n",
               argv0, why.c_str(), argv0);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(argv[0], "missing value for " + flag);
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        a.trace = std::stoi(value());
      } else if (flag == "--small") {
        a.small = true;
      } else if (flag == "--jobs") {
        a.jobs = std::stoi(value());
      } else if (flag == "--expected") {
        a.expected = value();
      } else if (flag == "--out") {
        a.out_dir = value();
      } else if (flag == "--record") {
        a.record = value();
      } else if (flag == "--git-describe") {
        a.git_describe = value();
      } else if (flag == "--check-equivalence") {
        a.check_equivalence = true;
      } else {
        Usage(argv[0], "unknown flag " + flag);
      }
    } catch (const std::exception&) {
      Usage(argv[0], "bad value for " + flag);
    }
  }
  if (a.workload.empty()) Usage(argv[0], "--workload is required");
  if (a.trace != 0 && a.trace != 1) Usage(argv[0], "--trace must be 0 or 1");
  return a;
}

/// Byte-compares the benchmark's cell function against runner::RunOltpCell
/// on the workload's specs with the paper's uniform mix. Returns the number
/// of differing rows.
int CheckEquivalence(Workload w) {
  if (w.driver != DriverKind::kClosed) {
    std::fprintf(stderr, "e2ebench: %s is not an OLTP workload\n",
                 w.name.c_str());
    return 1;
  }
  w.distribution = AccessDistribution::kUniform;
  std::vector<std::string> product = ProductRows(w);
  PassResult pass = RunPass(w, fault::FaultPlan{}, /*traced=*/false);
  PassResult traced = RunPass(w, fault::FaultPlan{}, /*traced=*/true);
  int differ = CountFailures(pass, product) + CountFailures(traced, product);
  std::printf("equivalence %s: %zu cells, %d differing rows\n",
              w.name.c_str(), product.size(), differ);
  return differ;
}

std::string ProvenanceJson(const Args& a, const Workload& w, int jobs) {
  std::ostringstream os;
  os << "{\"build_type\":" << JsonString(E2EBENCH_BUILD_TYPE)
#ifdef NDEBUG
     << ",\"ndebug\":true"
#else
     << ",\"ndebug\":false"
#endif
#ifdef __clang__
     << ",\"compiler\":" << JsonString(std::string("clang ") + __VERSION__)
#else
     << ",\"compiler\":" << JsonString(std::string("gcc ") + __VERSION__)
#endif
     << ",\"cxx_flags\":" << JsonString(E2EBENCH_CXX_FLAGS)
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"workers\":" << jobs << ",\"workload\":" << JsonString(w.name)
     << ",\"size\":" << JsonString(a.small ? "small" : "full")
     << ",\"seed\":" << a.seed << ",\"seconds\":" << JsonNumber(a.seconds)
     << ",\"trace\":" << a.trace
     << ",\"git_describe\":" << JsonString(a.git_describe) << "}";
  return os.str();
}

int Main(int argc, char** argv) {
  util::SetLogLevel(util::LogLevel::kWarning);
  Args args = ParseArgs(argc, argv);
  std::optional<Workload> maybe =
      MakeWorkload(args.workload, args.seed, args.small);
  if (!maybe) Usage(argv[0], "unknown workload " + args.workload);
  Workload w = *std::move(maybe);
  if (args.jobs > 0) w.jobs = args.jobs;
  if (args.check_equivalence) return CheckEquivalence(w) == 0 ? 0 : 1;

  fault::FaultPlan faults;
  if (!w.fault_plan.empty()) {
    util::Result<fault::FaultPlan> plan = fault::ParseFaultPlan(w.fault_plan);
    CB_CHECK(plan.ok()) << plan.status().message();
    faults = *std::move(plan);
  }

  std::vector<PassResult> plain;
  std::vector<PassResult> traced;
  double peak_rss_mb = 0;
  Clock::time_point start = Clock::now();
  do {
    plain.push_back(RunPass(w, faults, /*traced=*/false));
    // Later passes add allocator noise (a fresh worker thread per pass), so
    // the peak is taken over the first pass of a fresh process.
    if (plain.size() == 1) peak_rss_mb = PeakRssMb();
    if (args.trace == 1) traced.push_back(RunPass(w, faults, /*traced=*/true));
  } while (UsSince(start, Clock::now()) / 1e6 < args.seconds);

  // Expected rows: the recording for this seed; else the product path where
  // it applies; else the first pass (every later pass must repeat it).
  std::vector<std::string> expected = LoadExpected(args.expected, args.seed);
  std::string expected_source = "recorded";
  if (expected.empty() && ProductPathApplies(w)) {
    expected = ProductRows(w);
    expected_source = "product_path";
  } else if (expected.empty()) {
    expected_source = "first_pass";
    for (const runner::CellResult& r : plain.front().rows) {
      expected.push_back(runner::ToJsonLine(r));
    }
  }
  int attempted = 0;
  int failed = 0;
  for (const std::vector<PassResult>* passes : {&plain, &traced}) {
    for (const PassResult& pass : *passes) {
      attempted += static_cast<int>(pass.rows.size());
      failed += CountFailures(pass, expected);
    }
  }

  if (!args.record.empty()) {
    std::ofstream rec(args.record, std::ios::app);
    for (const runner::CellResult& r : plain.front().rows) {
      rec << args.seed << "\t" << runner::ToJsonLine(r) << "\n";
    }
  }

  std::vector<Counts> plain_n;
  for (const PassResult& p : plain) plain_n.push_back(PassNumbers(p));
  std::vector<Counts> traced_n;
  for (const PassResult& p : traced) traced_n.push_back(PassNumbers(p));

  std::map<std::string, double> metrics;
  std::vector<MetricDef> defs;
  if (args.trace == 0) {
    defs.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    metrics["wall_s"] = MinOf(plain_n, "wall_s");
    metrics["setup_s"] = MedianOf(plain_n, "setup_s");
    metrics["txns_per_s"] = MaxOf(plain_n, "txns_per_s");
    metrics["peak_rss_mb"] = peak_rss_mb;
  } else {
    defs.assign(std::begin(kPerLayer), std::end(kPerLayer));
    for (const MetricDef& d : defs) {
      metrics[d.name] = MedianOf(traced_n, d.name);
    }
    metrics["obs.trace_overhead_ratio"] =
        Ratio(MinOf(traced_n, "wall_s"), MinOf(plain_n, "wall_s"));
    metrics["cell_error_ratio"] = Ratio(failed, attempted);
  }

  std::string stem = args.out_dir + "/" + w.name + "-seed" +
                     std::to_string(args.seed) + (args.small ? "-small" : "");
  std::string provenance = ProvenanceJson(args, w, plain.front().jobs);
  {
    std::ofstream out(stem + "-trace" + std::to_string(args.trace) +
                          ".result.json",
                      std::ios::trunc);
    out << "{\"provenance\":" << provenance
        << ",\"expected_rows\":" << JsonString(expected_source)
        << ",\"passes\":[";
    for (size_t i = 0; i < plain_n.size(); ++i) {
      out << (i ? ",{" : "{") << "\"wall_s\":"
          << JsonNumber(plain_n[i]["wall_s"]);
      for (const char* key : {"setup_s", "cells_sum_s", "txns_per_s"}) {
        out << "," << JsonString(key) << ":" << JsonNumber(plain_n[i][key]);
      }
      out << "}";
    }
    out << "],\"attempted\":" << attempted << ",\"failed\":" << failed
        << ",\"metrics\":{";
    bool first = true;
    for (const auto& [name, value] : metrics) {
      out << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(value);
      first = false;
    }
    out << "}}\n";
  }
  if (!traced.empty()) {
    WriteSpans(stem + ".spans.jsonl", traced);
    WriteCellLayers(stem + ".layers.jsonl", traced.front());
    std::ofstream fold(stem + ".selftime.json", std::ios::trunc);
    fold << "{\"passes\":" << traced.size() << ",\"self_ms_per_pass\":{";
    bool first = true;
    for (const auto& [name, ms] : SelfTimeMs(traced)) {
      fold << (first ? "" : ",") << JsonString(name) << ":" << JsonNumber(ms);
      std::fprintf(stderr, "e2ebench: self %-14s %10.2f ms/pass\n",
                   name.c_str(), ms);
      first = false;
    }
    fold << "}}\n";
  }

  std::printf("{\"provenance\":%s}\n", provenance.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%d,\"failed\":%d,\"metrics\":{",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < defs.size(); ++i) {
    std::printf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", i ? "," : "",
                defs[i].name, JsonNumber(metrics[defs[i].name]).c_str(),
                defs[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace cloudybench::e2ebench

int main(int argc, char** argv) {
  return cloudybench::e2ebench::Main(argc, argv);
}

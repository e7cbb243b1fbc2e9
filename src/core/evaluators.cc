#include "core/evaluators.h"

#include <algorithm>

#include "core/metrics.h"
#include "core/workload_manager.h"
#include "obs/exporters.h"
#include "util/logging.h"

namespace cloudybench {

OltpResult OltpEvaluator::Run(sim::Environment* env, cloud::Cluster* cluster,
                              TransactionSet* txns, const Options& options) {
  PerformanceCollector collector(env);
  collector.Start();
  // Expose this run's TPS series and latency histograms to the metrics
  // exporter; the collector is stack-local, so drop the entries on exit.
  obs::MetricRegistry& registry = obs::MetricRegistry::Get();
  collector.RegisterWith(&registry, "oltp.");
  WorkloadManager manager(env, cluster, txns, &collector);
  manager.SetConcurrency(options.concurrency);

  double t0 = env->Now().ToSeconds() + options.warmup.ToSeconds();
  env->RunFor(options.warmup + options.measure);
  double t1 = env->Now().ToSeconds();
  manager.StopAll();

  OltpResult result;
  result.mean_tps = collector.MeanTps(t0, t1);
  result.p50_latency_ms = collector.latency_all().p50() / 1000.0;
  result.p99_latency_ms = collector.latency_all().p99() / 1000.0;
  result.commits = collector.commits();
  result.aborts = collector.aborts();
  result.cost_per_minute = cluster->meter().RucCost(t0, t1).PerMinute(t1 - t0);
  result.p_score = metrics::PScore(result.mean_tps, result.cost_per_minute);
  result.buffer_hit_rate = cluster->rw()->buffer().hit_rate();
  result.window_start_s = t0;
  result.window_end_s = t1;
  if (!options.metrics_export_path.empty()) {
    util::Status written = obs::WriteMetricsJsonlFile(
        registry, options.metrics_export_path);
    if (!written.ok()) {
      CB_LOG(kError) << "metrics export failed: " << written;
    }
  }
  registry.UnregisterPrefix("oltp.");
  return result;
}

ElasticityResult ElasticityEvaluator::Run(sim::Environment* env,
                                          cloud::Cluster* cluster,
                                          TransactionSet* txns,
                                          ElasticityPattern pattern,
                                          const Options& options) {
  return RunSchedule(env, cluster, txns,
                     ElasticitySchedule(pattern, options.tau), options);
}

ElasticityResult ElasticityEvaluator::RunSchedule(
    sim::Environment* env, cloud::Cluster* cluster, TransactionSet* txns,
    const std::vector<int>& schedule, const Options& options) {
  CB_CHECK(!schedule.empty());
  PerformanceCollector collector(env);
  collector.Start();
  WorkloadManager manager(env, cluster, txns, &collector);

  double start_s = env->Now().ToSeconds();
  double slot_s = options.slot.ToSeconds();
  size_t events_before = cluster->autoscaler().events().size();

  for (int concurrency : schedule) {
    manager.SetConcurrency(concurrency);
    env->RunFor(options.slot);
  }
  manager.StopAll();
  double pattern_end_s = env->Now().ToSeconds();

  // Keep metering through the paper's ten-minute cost window so lingering
  // allocations (gradual scale-down) are charged.
  int idle_slots = std::max(0, options.cost_window_slots -
                                   static_cast<int>(schedule.size()));
  env->RunFor(options.slot * static_cast<double>(idle_slots));
  double window_end_s = env->Now().ToSeconds();

  ElasticityResult result;
  result.schedule = schedule;
  result.pattern_seconds = pattern_end_s - start_s;
  result.cost_window_seconds = window_end_s - start_s;
  result.mean_tps = collector.MeanTps(start_s, pattern_end_s);
  for (size_t i = 0; i < schedule.size(); ++i) {
    double s0 = start_s + static_cast<double>(i) * slot_s;
    double s1 = s0 + slot_s;
    result.slot_tps.push_back(collector.tps_series().MeanInWindow(s0, s1));
    result.slot_vcores.push_back(
        cluster->meter().vcores_series().MeanInWindow(s0, s1));
  }
  result.total_cost = cluster->meter().RucCost(start_s, window_end_s);
  result.cost_per_minute =
      result.total_cost.PerMinute(result.cost_window_seconds);
  result.e1_score = metrics::E1Score(result.mean_tps, result.cost_per_minute);
  result.window_start_s = start_s;
  result.window_end_s = window_end_s;
  const auto& events = cluster->autoscaler().events();
  result.scaling_events.assign(events.begin() + static_cast<std::ptrdiff_t>(events_before),
                               events.end());
  return result;
}

LagTimeResult LagTimeEvaluator::Run(sim::Environment* env,
                                    cloud::Cluster* cluster,
                                    const Options& options) {
  CB_CHECK_GT(cluster->replayer_count(), 0u)
      << "lag evaluation needs at least one RO replica";
  SalesWorkloadConfig cfg = SalesWorkloadConfig::IudMix(
      options.insert_pct, options.update_pct, options.delete_pct);
  cfg.seed = options.seed;
  SalesTransactionSet txns(cfg);

  // Pre-fill the deletion queue so delete-heavy mixes measure deletions of
  // replicated rows rather than base-row fallbacks.
  PerformanceCollector collector(env);
  collector.Start();
  WorkloadManager manager(env, cluster, &txns, &collector);
  manager.SetConcurrency(options.concurrency);
  env->RunFor(options.warmup);

  // Snapshot lag statistics before/after via fresh accumulation: the
  // replayer's stats are cumulative, so measure with deltas.
  repl::Replayer* replayer = cluster->replayer(0);
  util::RunningStat ins_before = replayer->InsertLag();
  util::RunningStat upd_before = replayer->UpdateLag();
  util::RunningStat del_before = replayer->DeleteLag();

  env->RunFor(options.measure);
  manager.StopAll();
  // Drain the replication pipeline.
  env->RunFor(sim::Seconds(10));

  auto delta_mean = [](const util::RunningStat& before,
                       const util::RunningStat& after) {
    int64_t n = after.count() - before.count();
    if (n <= 0) return 0.0;
    return (after.sum() - before.sum()) / static_cast<double>(n);
  };

  LagTimeResult result;
  result.insert_lag_ms = delta_mean(ins_before, replayer->InsertLag());
  result.update_lag_ms = delta_mean(upd_before, replayer->UpdateLag());
  result.delete_lag_ms = delta_mean(del_before, replayer->DeleteLag());
  result.c_score = metrics::CScore(
      result.insert_lag_ms, result.update_lag_ms, result.delete_lag_ms,
      static_cast<int>(cluster->replayer_count()));
  result.records_applied = replayer->records_applied();
  return result;
}

FailoverResult FailoverEvaluator::Run(sim::Environment* env,
                                      cloud::Cluster* cluster,
                                      TransactionSet* txns,
                                      const Options& options) {
  PerformanceCollector collector(env);
  collector.Start();
  WorkloadManager manager(env, cluster, txns, &collector);
  manager.SetConcurrency(options.concurrency);
  env->RunFor(options.warmup);

  double t_f = env->Now().ToSeconds();
  FailoverResult result;
  result.pre_failure_tps =
      collector.MeanTps(t_f - options.warmup.ToSeconds() / 2, t_f);
  result.target_tps = options.target_tps > 0
                          ? options.target_tps
                          : 0.9 * result.pre_failure_tps;

  if (options.fail_rw) {
    cluster->InjectRwRestart(env->Now());
  } else {
    cluster->InjectRoRestart(0, env->Now());
  }
  env->RunFor(options.max_observation);
  manager.StopAll();

  // Phase detection from the TPS series (0.5 s windows):
  //   t_f .. service lost (TPS ~ 0) .. t_s (TPS > 0) .. t_r (TPS >= target).
  const util::TimeSeries& tps = collector.tps_series();
  double loss_t = tps.FirstTimeAtMost(t_f, 1e-9);
  if (loss_t < 0) {
    // RO failure with read routing to the RW can keep TPS above zero;
    // treat a dip below half the target as the outage marker.
    loss_t = tps.FirstTimeAtMost(t_f, result.target_tps / 2);
  }
  if (loss_t < 0) {
    result.service_lost = false;
    return result;
  }
  result.service_lost = true;
  double t_s = tps.FirstTimeAtLeast(loss_t, 1e-9);
  if (t_s < 0) {
    result.f_seconds = options.max_observation.ToSeconds();
    return result;
  }
  result.f_seconds = t_s - t_f;
  // Require the target to hold for several windows: the instant after
  // resume, the backlog of blocked clients commits in a burst that can
  // spike one window above the target without the node being recovered.
  double t_r = tps.FirstSustainedAtLeast(t_s, result.target_tps, 4);
  if (t_r < 0) {
    result.r_seconds = options.max_observation.ToSeconds();
    return result;
  }
  result.tps_recovered = true;
  result.r_seconds = t_r - t_s;
  return result;
}

AvailabilityResult AvailabilityEvaluator::Run(sim::Environment* env,
                                              cloud::Cluster* cluster,
                                              TransactionSet* txns,
                                              const Options& options) {
  CB_CHECK(options.fault_start <= options.fault_end);
  CB_CHECK(options.fault_end <= options.measure);
  PerformanceCollector collector(env);
  collector.Start();
  WorkloadManager manager(env, cluster, txns, &collector);
  manager.SetConcurrency(options.concurrency);
  env->RunFor(options.warmup);

  sim::SimTime base = env->Now();
  double base_s = base.ToSeconds();
  AvailabilityResult result;
  result.baseline_tps =
      collector.MeanTps(base_s - options.warmup.ToSeconds() / 2, base_s);

  // Bracket the fault window with a latency capture; the scheduled calls
  // only flip collector bookkeeping, so they cannot perturb the simulation.
  int64_t commits_at_fault_start = 0;
  env->ScheduleCall(base + options.fault_start,
                    [&collector, &commits_at_fault_start] {
                      commits_at_fault_start = collector.commits();
                      collector.SetWindowCapture(true);
                    });
  int64_t commits_at_fault_end = 0;
  env->ScheduleCall(base + options.fault_end,
                    [&collector, &commits_at_fault_end] {
                      commits_at_fault_end = collector.commits();
                      collector.SetWindowCapture(false);
                    });
  if (options.arm) options.arm(base);

  env->RunFor(options.measure);
  manager.StopAll();
  double end_s = env->Now().ToSeconds();

  double fault_start_s = base_s + options.fault_start.ToSeconds();
  double fault_end_s = base_s + options.fault_end.ToSeconds();
  result.goodput_tps = collector.MeanTps(fault_start_s, end_s);
  result.commits = collector.commits();
  result.fault_window_commits = commits_at_fault_end - commits_at_fault_start;
  result.fault_p99_ms = collector.window_latency().p99() / 1000.0;

  // Availability: the share of sampling windows from fault start onward
  // that committed anything at all.
  int windows = 0;
  int live_windows = 0;
  for (const util::TimeSeries::Point& p : collector.tps_series().points()) {
    if (p.time_s <= fault_start_s || p.time_s > end_s) continue;
    ++windows;
    if (p.value > 0.0) ++live_windows;
  }
  result.availability_pct =
      windows > 0 ? 100.0 * static_cast<double>(live_windows) /
                        static_cast<double>(windows)
                  : 0.0;

  double target = options.target_fraction * result.baseline_tps;
  double t_r = collector.tps_series().FirstSustainedAtLeast(fault_end_s,
                                                            target, 4);
  if (t_r >= 0) {
    result.recovered = true;
    result.recovery_seconds = t_r - fault_end_s;
  } else {
    result.recovery_seconds = end_s - fault_end_s;
  }
  return result;
}

int FindSaturationConcurrency(
    int64_t scale_factor,
    const std::function<std::unique_ptr<cloud::Cluster>(sim::Environment*)>&
        make_cluster,
    double gain_threshold, int max_concurrency) {
  CB_CHECK_GT(gain_threshold, 0.0);
  double prev_tps = 0.0;
  int prev_con = 0;
  for (int con = 10; con <= max_concurrency; con *= 2) {
    sim::Environment env;
    std::unique_ptr<cloud::Cluster> cluster = make_cluster(&env);
    SalesTransactionSet txns(SalesWorkloadConfig::ReadWrite());
    cluster->Load(txns.Schemas(), scale_factor);
    cluster->PrewarmBuffers();
    OltpEvaluator::Options options;
    options.concurrency = con;
    options.warmup = sim::Seconds(1);
    options.measure = sim::Seconds(2);
    double tps = OltpEvaluator::Run(&env, cluster.get(), &txns, options)
                     .mean_tps;
    if (prev_tps > 0 && tps < prev_tps * (1.0 + gain_threshold)) {
      return prev_con;  // the previous level already saturated the SUT
    }
    prev_tps = tps;
    prev_con = con;
  }
  return prev_con;
}

}  // namespace cloudybench

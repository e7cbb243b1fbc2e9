#include "load/open_loop.h"

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "core/collector.h"
#include "obs/exporters.h"
#include "obs/histogram.h"
#include "obs/metric_registry.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/random.h"
#include "util/stats.h"

namespace cloudybench::load {

namespace {

/// One logical user at rest: everything a session needs between
/// transactions, and nothing more. A session is a 32-byte value that moves
/// between the ready queue, the frame of its executing transaction and the
/// closure of its think-time wakeup; a coroutine frame exists only while one
/// of its transactions is actually executing, so a million concurrent users
/// cost ~a million of these, not a million coroutine stacks.
struct Session {
  util::Pcg32 rng;
  /// The current transaction's scheduled instant (absolute sim micros):
  /// the arrival time for the first, completion + think for the rest.
  /// Latency and lag are both measured against it.
  int64_t scheduled_us = 0;
  int32_t txns_left = 0;
  uint32_t stream = 0;
};
static_assert(sizeof(Session) <= 32);

/// Shared run state. Coroutines and scheduled wakeups all hold a
/// shared_ptr, so leftover suspended frames reclaimed at environment
/// teardown never dangle even though OpenLoopDriver::Run has returned.
struct State {
  State(sim::Environment* e, cloud::Cluster* c, TransactionSet* t,
        const ArrivalPlan& p, const OpenLoopOptions& o)
      : env(e),
        cluster(c),
        txns(t),
        plan(p),
        options(o),
        gen(p, o.seed, o.horizon),
        collector(e),
        stream_latency_us(p.streams.size()),
        stream_lag_us(p.streams.size()) {}

  sim::Environment* env;
  cloud::Cluster* cluster;
  TransactionSet* txns;
  ArrivalPlan plan;
  OpenLoopOptions options;
  ArrivalGenerator gen;
  PerformanceCollector collector;

  /// Sliding window of the schedule: refilled batch-wise, never the run.
  std::vector<Arrival> window;
  size_t cursor = 0;
  int64_t window_hwm = 0;

  /// Sessions due to execute, waiting for an executing slot.
  std::deque<Session> ready;

  int64_t base_us = 0;
  bool stopped = false;

  int executing = 0;
  int64_t executing_hwm = 0;
  /// Live sessions: +1 at admission, -1 at retirement or after the stop.
  /// Each one is exactly one Session value wherever it is, so this also
  /// counts resident session state.
  int64_t inflight = 0;
  int64_t inflight_hwm = 0;
  int64_t arrivals = 0;
  /// Bounded-memory latency recording (obs::Histogram, O(buckets) each):
  /// one scheduled-vs-admitted lag histogram for the run plus a latency and
  /// a lag histogram per arrival stream — per-tenant quantiles at
  /// million-session scale without per-sample storage.
  obs::Histogram lag_us;
  std::vector<obs::Histogram> stream_latency_us;
  std::vector<obs::Histogram> stream_lag_us;
  /// This thread's recorder, resolved once per run; each span records only
  /// while it is enabled.
  obs::TraceRecorder* recorder = &obs::TraceRecorder::Get();
  /// Dispatcher trace track (0 while tracing is off): load.refill and
  /// load.dispatch.wait spans land here for the profiler.
  uint64_t trace_track = 0;
};

using StatePtr = std::shared_ptr<State>;

sim::Process RunTransaction(StatePtr state, Session sess);

/// Fills free executing slots from the ready queue, FIFO. Called after
/// every event that frees a slot or adds a ready session.
void Pump(const StatePtr& state) {
  State& st = *state;
  while (!st.stopped && st.executing < st.options.max_executing &&
         !st.ready.empty()) {
    Session sess = st.ready.front();
    st.ready.pop_front();
    st.env->Spawn(RunTransaction(state, sess));
  }
}

/// Executes exactly one of the session's transactions, then either parks
/// the session for its think time (the value rides in the wakeup's closure —
/// this frame dies) or retires it.
sim::Process RunTransaction(StatePtr state, Session sess) {
  State& st = *state;
  ++st.executing;
  st.executing_hwm = std::max(st.executing_hwm,
                              static_cast<int64_t>(st.executing));
  double lag = static_cast<double>(st.env->Now().us - sess.scheduled_us);
  st.lag_us.Add(lag);
  st.stream_lag_us[sess.stream].Add(lag);

  TxnType type = TxnType::kOther;
  util::Status s = co_await st.txns->RunOne(st.cluster, sess.rng, &type);

  double latency_ms =
      static_cast<double>(st.env->Now().us - sess.scheduled_us) / 1e3;
  if (s.ok()) {
    st.collector.RecordCommit(type, latency_ms);
    st.stream_latency_us[sess.stream].Add(latency_ms * 1000.0);
  } else if (s.IsUnavailable()) {
    st.collector.RecordUnavailable(type);
  } else {
    st.collector.RecordAbort(type);
  }

  --st.executing;
  if (st.stopped) {
    --st.inflight;
    co_return;
  }
  if (--sess.txns_left > 0) {
    const ArrivalSpec& spec = st.plan.streams[sess.stream];
    sess.scheduled_us = st.env->Now().us + spec.think.us;
    if (spec.think.us > 0) {
      // Park: the session survives inside this closure; no coroutine
      // frame until the wakeup fires.
      st.env->ScheduleCall(sim::SimTime{sess.scheduled_us}, [state, sess] {
        if (state->stopped) {
          --state->inflight;
          return;
        }
        state->ready.push_back(sess);
        Pump(state);
      });
    } else {
      st.ready.push_back(sess);
    }
  } else {
    --st.inflight;  // retired
  }
  Pump(state);
}

/// Walks the arrival schedule in real (simulated) time, admitting each
/// arrival as a fresh session the instant it is due — never waiting on the
/// SUT, which is the whole point of an open loop.
sim::Process DispatcherLoop(StatePtr state) {
  State& st = *state;
  while (!st.stopped) {
    if (st.cursor == st.window.size()) {
      obs::CachedSpanScope refill(st.recorder, st.env, st.trace_track,
                                  obs::Layer::kLoad, "load.refill");
      st.window.clear();
      st.cursor = 0;
      if (st.gen.NextBatch(st.options.batch, &st.window) == 0) break;
      st.window_hwm = std::max(st.window_hwm,
                               static_cast<int64_t>(st.window.size()));
    }
    const Arrival a = st.window[st.cursor];
    int64_t at_us = st.base_us + a.t_us;
    if (at_us > st.env->Now().us) {
      obs::CachedSpanScope wait(st.recorder, st.env, st.trace_track,
                                obs::Layer::kLoad, "load.dispatch.wait");
      co_await st.env->Delay(sim::SimTime{at_us - st.env->Now().us});
      if (st.stopped) break;
    }
    ++st.cursor;

    ++st.arrivals;
    ++st.inflight;
    st.inflight_hwm = std::max(st.inflight_hwm, st.inflight);
    st.ready.push_back(Session{
        util::SplitStream(st.options.seed, util::kSessionStream, a.seq),
        at_us, st.plan.streams[a.stream].txns_per_session, a.stream});
    Pump(state);
  }
}

}  // namespace

OpenLoopResult OpenLoopDriver::Run(sim::Environment* env,
                                   cloud::Cluster* cluster,
                                   TransactionSet* txns,
                                   const ArrivalPlan& plan,
                                   const OpenLoopOptions& options) {
  CB_CHECK(env != nullptr);
  CB_CHECK(txns != nullptr);
  CB_CHECK(!plan.empty()) << "open-loop run needs at least one stream";
  CB_CHECK_GT(options.horizon.us, 0);
  CB_CHECK_GT(options.max_executing, 0);
  CB_CHECK_GT(options.batch, 0u);

  auto state = std::make_shared<State>(env, cluster, txns, plan, options);
  state->base_us = env->Now().us;
  state->collector.Start();

  obs::TraceRecorder* recorder = state->recorder;
  if (recorder->enabled()) {
    state->trace_track = recorder->NewTrack();
    recorder->SetTrackName(state->trace_track, "load.dispatcher");
  }

  obs::MetricRegistry& registry = obs::MetricRegistry::Get();
  state->collector.RegisterWith(&registry, "load.");
  registry.RegisterHistogram("load.lag", &state->lag_us);
  for (size_t k = 0; k < plan.streams.size(); ++k) {
    std::string stream = "load.stream" + std::to_string(k);
    registry.RegisterHistogram(stream + ".latency",
                               &state->stream_latency_us[k]);
    registry.RegisterHistogram(stream + ".lag", &state->stream_lag_us[k]);
  }
  registry.RegisterGauge("load.offered", [state] {
    return static_cast<double>(state->arrivals);
  });
  registry.RegisterGauge("load.inflight", [state] {
    return static_cast<double>(state->inflight);
  });
  registry.RegisterGauge("load.executing", [state] {
    return static_cast<double>(state->executing);
  });
  // Scheduled-vs-admitted lag of the oldest queued session: the live
  // backlog signal a saturation timeline shows climbing.
  registry.RegisterGauge("load.lag_ms", [state] {
    if (state->ready.empty()) return 0.0;
    return static_cast<double>(state->env->Now().us -
                               state->ready.front().scheduled_us) /
           1e3;
  });

  std::string summary;
  for (const ArrivalSpec& spec : plan.streams) {
    if (!summary.empty()) summary += "; ";
    summary += spec.ToString();
  }
  obs::EmitEvent(env, "load", "load.begin", summary,
                 static_cast<double>(plan.streams.size()));

  env->Spawn(DispatcherLoop(state));
  env->RunUntil(sim::SimTime{state->base_us + options.horizon.us +
                             options.drain.us});
  state->stopped = true;

  OpenLoopResult result;
  result.arrivals = state->arrivals;
  result.generated = static_cast<int64_t>(state->gen.generated());
  double horizon_s = options.horizon.ToSeconds();
  result.offered_tps = static_cast<double>(result.generated) / horizon_s;
  result.goodput_tps =
      static_cast<double>(state->collector.commits()) / horizon_s;
  result.commits = state->collector.commits();
  result.aborts = state->collector.aborts();
  result.unavailable = state->collector.unavailable_errors();
  result.incomplete = state->inflight;
  result.p50_ms = state->collector.latency_all().p50() / 1e3;
  result.p99_ms = state->collector.latency_all().p99() / 1e3;
  result.max_ms = state->collector.latency_all().max() / 1e3;
  result.lag_mean_ms = state->lag_us.mean() / 1e3;
  result.lag_p99_ms = state->lag_us.p99() / 1e3;
  result.lag_max_ms = state->lag_us.max() / 1e3;
  result.inflight_hwm = state->inflight_hwm;
  result.executing_hwm = state->executing_hwm;
  result.session_pool_hwm = state->inflight_hwm;
  result.schedule_window_hwm = state->window_hwm;
  result.horizon_seconds = horizon_s;
  result.streams.reserve(plan.streams.size());
  for (size_t k = 0; k < plan.streams.size(); ++k) {
    const obs::Histogram& lat = state->stream_latency_us[k];
    const obs::Histogram& lag = state->stream_lag_us[k];
    result.streams.push_back(OpenLoopResult::StreamStats{
        lat.count(), lat.p50() / 1e3, lat.p99() / 1e3, lag.p99() / 1e3,
        lag.max() / 1e3});
  }

  obs::EmitEvent(env, "load", "load.end", "",
                 static_cast<double>(result.arrivals));
  if (!options.metrics_export_path.empty()) {
    util::Status written =
        obs::WriteMetricsJsonlFile(registry, options.metrics_export_path);
    if (!written.ok()) {
      CB_LOG(kError) << "metrics export failed: " << written;
    }
  }
  registry.UnregisterPrefix("load.");
  return result;
}

}  // namespace cloudybench::load

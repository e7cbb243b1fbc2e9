#ifndef CLOUDYBENCH_LOAD_ARRIVAL_H_
#define CLOUDYBENCH_LOAD_ARRIVAL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.h"
#include "util/random.h"
#include "util/result.h"

namespace cloudybench::load {

/// The interarrival processes of the open-loop workload engine
/// (DESIGN.md §4h). Closed-loop drivers let latency feedback throttle the
/// offered load; these generate arrivals from a clock-driven stochastic
/// process instead, the way a million independent users actually hit a
/// cloud database.
enum class ArrivalProcess {
  /// Homogeneous Poisson at `rate` (exponential interarrivals); shapes make
  /// it non-homogeneous via Lewis–Shedler thinning.
  kPoisson,
  /// Two-state Markov-modulated Poisson process: `rate` in state 1, `rate2`
  /// in state 2, exponential state dwell with mean `dwell`. The classic
  /// bursty-traffic model.
  kMmpp,
  /// Deterministic arrivals at exactly 1/rate(t) spacing (D in queueing
  /// notation); no randomness, useful for exact offered-load ladders.
  kFixed,
};

/// Stable wire name ("poisson", "mmpp", "fixed").
const char* ArrivalProcessName(ArrivalProcess process);

/// One arrival stream: a process, its rate(s), a window, composable
/// multiplicative rate shapes, and the session the stream's users run.
/// Several streams mix into one plan (per-tenant streams); each stream
/// draws from its own stream-split RNG substreams so plans are
/// deterministic and order-independent.
struct ArrivalSpec {
  ArrivalProcess process = ArrivalProcess::kPoisson;
  /// Mean arrivals per second (MMPP: state-1 rate).
  double rate = 0.0;
  /// MMPP state-2 rate.
  double rate2 = 0.0;
  /// MMPP mean state dwell time.
  sim::SimTime dwell = sim::Seconds(1);

  /// Stream window, relative to the run base. duration 0 = to the horizon.
  sim::SimTime start{0};
  sim::SimTime duration{0};

  /// Composable rate shapes; each enabled shape multiplies the base rate.
  /// Diurnal sinusoid: factor 1 + amplitude * sin(2π (t-start)/period).
  bool diurnal = false;
  sim::SimTime period = sim::Seconds(60);
  double amplitude = 0.5;
  /// Linear ramp of the rate from `rate` at window start to `ramp_to` at
  /// window end.
  bool ramp = false;
  double ramp_to = 0.0;
  /// Flash crowd: rate × spike_magnitude in
  /// [spike_at, spike_at + spike_duration), offsets from window start.
  bool spike = false;
  sim::SimTime spike_at{0};
  sim::SimTime spike_duration{0};
  double spike_magnitude = 0.0;

  /// Session shape: each arrival is one logical user running this many
  /// transactions with `think` between them (0 = back to back).
  int txns_per_session = 1;
  sim::SimTime think{0};

  /// Label for per-tenant reporting; defaults to "t<stream index>".
  std::string tenant;

  /// Multiplicative shape factor at offset `t` from the run base, given the
  /// stream's effective window end (ramp needs it). 1.0 outside shapes.
  /// Inline on purpose: the thinning loop evaluates it per candidate (tens
  /// of millions of calls per schedule) and the unshaped fast path is three
  /// bool tests.
  double ShapeFactor(sim::SimTime t, sim::SimTime window_end) const;
  /// Upper bound of ShapeFactor over the window — the thinning envelope.
  double MaxShapeFactor() const;
  /// Peak instantaneous arrival rate of the stream (arrivals/second).
  double PeakRate() const;

  /// "poisson rate=800 shape=diurnal period=20s amplitude=0.5".
  std::string ToString() const;
};

inline double ArrivalSpec::ShapeFactor(sim::SimTime t,
                                       sim::SimTime window_end) const {
  constexpr double kPi = 3.14159265358979323846;
  double factor = 1.0;
  double local_us = static_cast<double>((t - start).us);
  if (diurnal) {
    factor *= 1.0 + amplitude * std::sin(2.0 * kPi * local_us /
                                         static_cast<double>(period.us));
  }
  if (ramp) {
    double span_us = static_cast<double>((window_end - start).us);
    if (span_us > 0.0) {
      double frac = std::clamp(local_us / span_us, 0.0, 1.0);
      factor *= 1.0 + (ramp_to / rate - 1.0) * frac;
    }
  }
  if (spike) {
    int64_t lo = spike_at.us;
    int64_t hi = spike_at.us + spike_duration.us;
    int64_t at = (t - start).us;
    if (at >= lo && at < hi) factor *= spike_magnitude;
  }
  return std::max(factor, 0.0);
}

/// A deterministic mix of arrival streams — the unit bench_saturation and
/// the open-loop driver consume. Stream order is the textual order of the
/// plan string and is part of the deterministic contract (tie-broken
/// merges use it).
struct ArrivalPlan {
  std::vector<ArrivalSpec> streams;

  bool empty() const { return streams.empty(); }
  /// Sum of per-stream peak rates — the plan's worst-case offered load.
  double PeakRate() const;
};

/// One scheduled arrival. `t_us` is the offset from the run base the user
/// *arrives* at — the open-loop driver measures every latency against it,
/// so queueing delay while the SUT is saturated is part of the number
/// (no coordinated omission).
struct Arrival {
  int64_t t_us = 0;
  uint32_t stream = 0;
  /// Global monotonic sequence (merge order); also the session's RNG
  /// substream index.
  uint64_t seq = 0;
};

/// Compiles an ArrivalPlan into a deterministic arrival schedule, generated
/// in batches: only O(streams) generator state plus the caller's current
/// batch are ever resident, never the whole run — a 10⁹-arrival schedule
/// costs the same memory as a 10³ one. Each stream draws interarrivals and
/// MMPP state flips from its own stream-split substreams of `seed`, so the
/// merged schedule is a pure function of (plan, seed, horizon).
class ArrivalGenerator {
 public:
  ArrivalGenerator(const ArrivalPlan& plan, uint64_t seed,
                   sim::SimTime horizon);

  ArrivalGenerator(const ArrivalGenerator&) = delete;
  ArrivalGenerator& operator=(const ArrivalGenerator&) = delete;

  /// Appends up to `max` arrivals to `out` in nondecreasing time order
  /// (ties broken by stream index). Returns the number appended; 0 means
  /// the schedule is exhausted.
  size_t NextBatch(size_t max, std::vector<Arrival>* out);

  bool exhausted() const;
  uint64_t generated() const { return next_seq_; }
  sim::SimTime horizon() const { return horizon_; }

 private:
  struct StreamState {
    const ArrivalSpec* spec = nullptr;
    util::Pcg32 rng;       ///< interarrival + thinning draws
    util::Pcg32 mod_rng;   ///< MMPP state-flip draws (independent stream)
    int64_t end_us = 0;    ///< effective window end
    int64_t next_us = -1;  ///< next pending arrival; -1 = exhausted
    double envelope = 0.0; ///< thinning bound (arrivals/second)
    double mod_rate = 0.0; ///< MMPP flip rate (1e6 / dwell µs), hoisted
    int mmpp_state = 0;
    int64_t switch_us = 0; ///< next MMPP state flip
  };

  void Advance(StreamState* s);
  double RateAt(const StreamState& s, int64_t t_us) const;

  ArrivalPlan plan_;
  sim::SimTime horizon_;
  std::vector<StreamState> streams_;
  uint64_t next_seq_ = 0;
};

/// Parses one "key=value,key=value" stream spec. Keys: process (required),
/// rate (required), rate2, dwell, start, duration, shape (a '+'-joined list
/// of diurnal/ramp/spike), period, amplitude, ramp-to, spike-at,
/// spike-duration, spike-mag, txns, think, tenant. Unknown keys, unknown
/// processes or shapes, and per-process or per-shape constraint violations
/// are kInvalidArgument — bench mains turn that into usage + exit 2,
/// matching the --faults= convention.
util::Result<ArrivalSpec> ParseArrivalSpec(std::string_view text);

/// Parses a semicolon-separated plan ("stream;stream;..."); empty pieces
/// are skipped so trailing semicolons are fine. An empty string is
/// kInvalidArgument: an open-loop run with no arrivals is a spec mistake,
/// not a quiet no-op.
util::Result<ArrivalPlan> ParseArrivalPlan(std::string_view text);

/// Flag-help block describing the plan grammar (printed by bench usage).
std::string ArrivalPlanHelp();

}  // namespace cloudybench::load

#endif  // CLOUDYBENCH_LOAD_ARRIVAL_H_

#ifndef CLOUDYBENCH_UTIL_STATS_H_
#define CLOUDYBENCH_UTIL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace cloudybench::util {

/// Streaming mean/min/max/stddev (Welford). Used for per-slot TPS, lag
/// times, and every aggregate the metrics layer consumes.
class RunningStat {
 public:
  void Add(double x);
  void Merge(const RunningStat& other);
  void Reset();

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double variance() const;
  double stddev() const;
  double sum() const { return mean() * static_cast<double>(count_); }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// A (time, value) series sampled in simulated seconds. Backbone of the
/// PerformanceCollector: TPS curves, allocated-vCore curves, cost curves.
class TimeSeries {
 public:
  struct Point {
    double time_s;
    double value;
  };

  void Add(double time_s, double value);
  void Clear();

  const std::vector<Point>& points() const { return points_; }
  bool empty() const { return points_.empty(); }
  size_t size() const { return points_.size(); }

  /// Mean of values with time in [t0, t1).
  double MeanInWindow(double t0, double t1) const;
  /// Mean of values with time in the left-open trailing window
  /// (t1 - width, t1]. Collectors stamp each sample at the *end* of its
  /// aggregation window, so "the last `width` seconds as of t1" naturally
  /// includes a sample landing exactly on t1 and excludes one exactly on
  /// t1 - width — no boundary epsilons needed (the benches used to fake
  /// this with MeanInWindow(t0 + 0.001, t1 + 0.001)).
  double MeanInTrailingWindow(double t1, double width) const;
  /// Step-function integral of value dt over [t0, t1): treats each sample as
  /// holding until the next. Used to turn allocated-resource curves into
  /// resource-hours for costing.
  double IntegrateStep(double t0, double t1) const;
  /// First time >= t0 at which value crosses >= threshold; -1 if never.
  double FirstTimeAtLeast(double t0, double threshold) const;
  /// First time >= t0 from which `consecutive` successive samples are all
  /// >= threshold (a sustained crossing, robust to one-window bursts);
  /// -1 if never.
  double FirstSustainedAtLeast(double t0, double threshold,
                               int consecutive) const;
  /// First time >= t0 at which value drops <= threshold; -1 if never.
  double FirstTimeAtMost(double t0, double threshold) const;
  /// Resamples into fixed-width slot means over [0, n_slots*slot_s).
  /// Single pass over the series (points are time-ordered), not one scan
  /// per slot.
  std::vector<double> SlotMeans(double slot_s, int n_slots) const;

 private:
  std::vector<Point> points_;  // appended in nondecreasing time order
};

}  // namespace cloudybench::util

#endif  // CLOUDYBENCH_UTIL_STATS_H_

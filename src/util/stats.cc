#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace cloudybench::util {

void RunningStat::Add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  double delta = other.mean_ - mean_;
  int64_t total = count_ + other.count_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) /
                         static_cast<double>(total);
  mean_ += delta * static_cast<double>(other.count_) / static_cast<double>(total);
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
  count_ = total;
}

void RunningStat::Reset() { *this = RunningStat(); }

double RunningStat::variance() const {
  return count_ > 1 ? m2_ / static_cast<double>(count_ - 1) : 0.0;
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

void TimeSeries::Add(double time_s, double value) {
  if (!points_.empty()) {
    CB_CHECK_GE(time_s, points_.back().time_s) << "TimeSeries must be appended in time order";
  } else {
    // Collectors append one point per aggregation window for the whole
    // measurement; skip the first few doubling reallocations up front.
    points_.reserve(64);
  }
  points_.push_back(Point{time_s, value});
}

void TimeSeries::Clear() { points_.clear(); }

double TimeSeries::MeanInWindow(double t0, double t1) const {
  double sum = 0.0;
  int64_t n = 0;
  for (const Point& p : points_) {
    if (p.time_s >= t0 && p.time_s < t1) {
      sum += p.value;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double TimeSeries::MeanInTrailingWindow(double t1, double width) const {
  double t0 = t1 - width;
  double sum = 0.0;
  int64_t n = 0;
  for (const Point& p : points_) {
    if (p.time_s > t0 && p.time_s <= t1) {
      sum += p.value;
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double TimeSeries::IntegrateStep(double t0, double t1) const {
  if (points_.empty() || t1 <= t0) return 0.0;
  double total = 0.0;
  // Value before the first sample is taken as the first sample's value.
  double prev_v = points_.front().value;
  double prev_t = t0;
  for (const Point& p : points_) {
    if (p.time_s <= t0) {
      prev_v = p.value;
      continue;
    }
    if (p.time_s >= t1) break;
    total += prev_v * (p.time_s - prev_t);
    prev_t = p.time_s;
    prev_v = p.value;
  }
  total += prev_v * (t1 - prev_t);
  return total;
}

double TimeSeries::FirstTimeAtLeast(double t0, double threshold) const {
  for (const Point& p : points_) {
    if (p.time_s >= t0 && p.value >= threshold) return p.time_s;
  }
  return -1.0;
}

double TimeSeries::FirstSustainedAtLeast(double t0, double threshold,
                                         int consecutive) const {
  CB_CHECK_GT(consecutive, 0);
  int run = 0;
  double run_start = -1.0;
  for (const Point& p : points_) {
    if (p.time_s < t0) continue;
    if (p.value >= threshold) {
      if (run == 0) run_start = p.time_s;
      if (++run >= consecutive) return run_start;
    } else {
      run = 0;
    }
  }
  return -1.0;
}

double TimeSeries::FirstTimeAtMost(double t0, double threshold) const {
  for (const Point& p : points_) {
    if (p.time_s >= t0 && p.value <= threshold) return p.time_s;
  }
  return -1.0;
}

std::vector<double> TimeSeries::SlotMeans(double slot_s, int n_slots) const {
  CB_CHECK_GT(slot_s, 0.0);
  std::vector<double> sums(static_cast<size_t>(n_slots), 0.0);
  std::vector<int64_t> counts(static_cast<size_t>(n_slots), 0);
  // Points are time-ordered, so one pass buckets everything. Slot i covers
  // [i*slot_s, (i+1)*slot_s) with boundaries computed as the exact same
  // products the old per-slot MeanInWindow scan used, so bucketing is
  // bit-identical to it.
  size_t i = 0;
  for (const Point& p : points_) {
    if (p.time_s < 0.0) continue;
    while (i < static_cast<size_t>(n_slots) &&
           p.time_s >= (static_cast<double>(i) + 1.0) * slot_s) {
      ++i;
    }
    if (i >= static_cast<size_t>(n_slots)) break;
    sums[i] += p.value;
    ++counts[i];
  }
  std::vector<double> out(static_cast<size_t>(n_slots), 0.0);
  for (size_t i = 0; i < sums.size(); ++i) {
    if (counts[i] > 0) out[i] = sums[i] / static_cast<double>(counts[i]);
  }
  return out;
}

}  // namespace cloudybench::util

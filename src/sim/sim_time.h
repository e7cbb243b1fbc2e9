#ifndef CLOUDYBENCH_SIM_SIM_TIME_H_
#define CLOUDYBENCH_SIM_SIM_TIME_H_

#include <compare>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "util/result.h"

namespace cloudybench::sim {

/// A point or span of simulated time with microsecond resolution.
///
/// CloudyBench experiments run entirely in virtual time: a "minute" time slot
/// of the paper's workload patterns costs only as many wall cycles as there
/// are events in it, so the benches reproduce ten-minute cloud experiments in
/// milliseconds while keeping every rate and duration metric meaningful.
struct SimTime {
  int64_t us = 0;

  constexpr double ToSeconds() const { return static_cast<double>(us) / 1e6; }
  constexpr double ToMillis() const { return static_cast<double>(us) / 1e3; }

  friend constexpr auto operator<=>(SimTime a, SimTime b) = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{us + o.us}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{us - o.us}; }
  constexpr SimTime& operator+=(SimTime o) {
    us += o.us;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    us -= o.us;
    return *this;
  }
  constexpr SimTime operator*(double k) const {
    return SimTime{static_cast<int64_t>(static_cast<double>(us) * k)};
  }
};

constexpr SimTime Micros(int64_t v) { return SimTime{v}; }
constexpr SimTime Millis(double v) {
  return SimTime{static_cast<int64_t>(v * 1e3)};
}
constexpr SimTime Seconds(double v) {
  return SimTime{static_cast<int64_t>(v * 1e6)};
}
constexpr SimTime Minutes(double v) {
  return SimTime{static_cast<int64_t>(v * 60e6)};
}

inline std::ostream& operator<<(std::ostream& os, SimTime t) {
  return os << t.ToSeconds() << "s";
}

/// The duration grammar shared by the --faults= and --arrivals= plans:
/// "5s" / "250ms" / "1500us" -> SimTime. Strict: requires a numeric value
/// and one of the three suffixes; anything else is kInvalidArgument.
util::Result<SimTime> ParseDuration(std::string_view text);

/// Inverse of ParseDuration for whole units: the largest of s / ms / us
/// that represents `t` exactly ("5s", "250ms", "1500us").
std::string FormatDuration(SimTime t);

}  // namespace cloudybench::sim

#endif  // CLOUDYBENCH_SIM_SIM_TIME_H_

#include "load/arrival.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/string_util.h"

namespace cloudybench::load {

namespace {

using util::Result;
using util::Status;

struct ProcessEntry {
  ArrivalProcess process;
  const char* name;
};

constexpr ProcessEntry kProcesses[] = {
    {ArrivalProcess::kPoisson, "poisson"},
    {ArrivalProcess::kMmpp, "mmpp"},
    {ArrivalProcess::kFixed, "fixed"},
};

Result<double> ParsePositiveDouble(std::string_view key,
                                   std::string_view value) {
  std::string number(value);
  char* end = nullptr;
  double parsed = std::strtod(number.c_str(), &end);
  if (end != number.c_str() + number.size() || number.empty()) {
    return Status::InvalidArgument("malformed " + std::string(key) + " '" +
                                   number + "'");
  }
  if (parsed <= 0.0) {
    return Status::InvalidArgument(std::string(key) + " must be > 0");
  }
  return parsed;
}

/// Per-spec constraint check; the parser's last gate.
Status Validate(const ArrivalSpec& spec) {
  std::string prefix = std::string(ArrivalProcessName(spec.process)) + ": ";
  if (spec.rate <= 0.0) {
    return Status::InvalidArgument(prefix + "needs rate > 0");
  }
  if (spec.process == ArrivalProcess::kMmpp) {
    if (spec.rate2 <= 0.0) {
      return Status::InvalidArgument(prefix + "needs rate2 > 0");
    }
    if (spec.dwell.us <= 0) {
      return Status::InvalidArgument(prefix + "needs dwell > 0");
    }
  } else if (spec.rate2 != 0.0) {
    return Status::InvalidArgument(prefix +
                                   "rate2 is only meaningful for mmpp");
  }
  if (spec.diurnal) {
    if (spec.period.us <= 0) {
      return Status::InvalidArgument(prefix + "diurnal needs period > 0");
    }
    if (spec.amplitude < 0.0 || spec.amplitude > 1.0) {
      return Status::InvalidArgument(prefix +
                                     "diurnal amplitude must be in [0, 1]");
    }
  }
  if (spec.ramp && spec.ramp_to <= 0.0) {
    return Status::InvalidArgument(prefix + "ramp needs ramp-to > 0");
  }
  if (spec.spike) {
    if (spec.spike_duration.us <= 0) {
      return Status::InvalidArgument(prefix + "spike needs spike-duration > 0");
    }
    if (spec.spike_magnitude <= 0.0) {
      return Status::InvalidArgument(prefix + "spike needs spike-mag > 0");
    }
    if (spec.spike_at.us < 0) {
      return Status::InvalidArgument(prefix + "spike-at must be >= 0");
    }
  }
  if (spec.start.us < 0) {
    return Status::InvalidArgument(prefix + "start must be >= 0");
  }
  if (spec.duration.us < 0) {
    return Status::InvalidArgument(prefix + "duration must be >= 0");
  }
  if (spec.txns_per_session < 1) {
    return Status::InvalidArgument(prefix + "txns must be >= 1");
  }
  if (spec.think.us < 0) {
    return Status::InvalidArgument(prefix + "think must be >= 0");
  }
  return Status::OK();
}

/// Exponential gap in microseconds with mean 1/rate seconds; strictly
/// positive, one RNG draw per call.
double ExpGapUs(util::Pcg32& rng, double rate_per_s) {
  double u = rng.NextDouble();
  return -std::log1p(-u) / rate_per_s * 1e6;
}

}  // namespace

const char* ArrivalProcessName(ArrivalProcess process) {
  for (const ProcessEntry& entry : kProcesses) {
    if (entry.process == process) return entry.name;
  }
  return "unknown";
}

double ArrivalSpec::MaxShapeFactor() const {
  double factor = 1.0;
  if (diurnal) factor *= 1.0 + amplitude;
  if (ramp) factor *= std::max(1.0, ramp_to / rate);
  if (spike) factor *= std::max(1.0, spike_magnitude);
  return factor;
}

double ArrivalSpec::PeakRate() const {
  double base = rate;
  if (process == ArrivalProcess::kMmpp) base = std::max(rate, rate2);
  return base * MaxShapeFactor();
}

std::string ArrivalSpec::ToString() const {
  std::ostringstream out;
  out << ArrivalProcessName(process) << " rate=" << rate;
  if (process == ArrivalProcess::kMmpp) {
    out << " rate2=" << rate2 << " dwell=" << sim::FormatDuration(dwell);
  }
  if (start.us > 0) out << " start=" << sim::FormatDuration(start);
  if (duration.us > 0) out << " duration=" << sim::FormatDuration(duration);
  if (diurnal || ramp || spike) {
    out << " shape=";
    const char* sep = "";
    if (diurnal) {
      out << sep << "diurnal";
      sep = "+";
    }
    if (ramp) {
      out << sep << "ramp";
      sep = "+";
    }
    if (spike) out << sep << "spike";
  }
  if (diurnal) {
    out << " period=" << sim::FormatDuration(period)
        << " amplitude=" << amplitude;
  }
  if (ramp) out << " ramp-to=" << ramp_to;
  if (spike) {
    out << " spike-at=" << sim::FormatDuration(spike_at)
        << " spike-duration=" << sim::FormatDuration(spike_duration)
        << " spike-mag=" << spike_magnitude;
  }
  if (txns_per_session > 1) out << " txns=" << txns_per_session;
  if (think.us > 0) out << " think=" << sim::FormatDuration(think);
  if (!tenant.empty()) out << " tenant=" << tenant;
  return out.str();
}

double ArrivalPlan::PeakRate() const {
  double total = 0.0;
  for (const ArrivalSpec& spec : streams) total += spec.PeakRate();
  return total;
}

ArrivalGenerator::ArrivalGenerator(const ArrivalPlan& plan, uint64_t seed,
                                   sim::SimTime horizon)
    : plan_(plan), horizon_(horizon) {
  streams_.resize(plan_.streams.size());
  for (size_t i = 0; i < plan_.streams.size(); ++i) {
    const ArrivalSpec& spec = plan_.streams[i];
    StreamState& s = streams_[i];
    s.spec = &spec;
    // Two substreams per arrival stream: one for interarrival/thinning
    // draws, one for MMPP state flips — the flip schedule must not depend
    // on how many candidates thinning consumed.
    s.rng = util::SplitStream(seed, util::kArrivalStream, 2 * i);
    s.mod_rng = util::SplitStream(seed, util::kArrivalStream, 2 * i + 1);
    s.end_us = spec.duration.us > 0
                   ? std::min(spec.start.us + spec.duration.us, horizon.us)
                   : horizon.us;
    s.envelope = spec.PeakRate();
    s.mmpp_state = 0;
    if (spec.process == ArrivalProcess::kMmpp) {
      // Hoisted out of the state-flip loop: same expression, computed once,
      // so the cached value is bit-identical to the inline one.
      s.mod_rate = 1e6 / spec.dwell.us;
      s.switch_us = spec.start.us +
                    static_cast<int64_t>(ExpGapUs(s.mod_rng, s.mod_rate));
    }
    if (spec.start.us >= s.end_us) {
      s.next_us = -1;  // window closed before it opened
    } else if (spec.process == ArrivalProcess::kFixed) {
      s.next_us = spec.start.us;  // first deterministic arrival at the edge
    } else {
      s.next_us = spec.start.us;
      Advance(&s);  // first Poisson/MMPP arrival is start + Exp gap
    }
  }
}

double ArrivalGenerator::RateAt(const StreamState& s, int64_t t_us) const {
  const ArrivalSpec& spec = *s.spec;
  double base = spec.rate;
  if (spec.process == ArrivalProcess::kMmpp && s.mmpp_state == 1) {
    base = spec.rate2;
  }
  return base * spec.ShapeFactor(sim::SimTime{t_us}, sim::SimTime{s.end_us});
}

void ArrivalGenerator::Advance(StreamState* s) {
  if (s->next_us < 0) return;
  const ArrivalSpec& spec = *s->spec;
  if (spec.process == ArrivalProcess::kFixed) {
    double lambda = RateAt(*s, s->next_us);
    // A diurnal trough can momentarily zero the rate; floor the divisor so
    // the deterministic stream steps past it instead of dividing by zero.
    lambda = std::max(lambda, s->envelope * 1e-6);
    int64_t gap = std::max<int64_t>(1, std::llround(1e6 / lambda));
    int64_t next = s->next_us + gap;
    s->next_us = next < s->end_us ? next : -1;
    return;
  }
  // Lewis–Shedler thinning against the stream's hoisted peak-rate
  // envelope. Each candidate's two uniforms (gap + acceptance) are drawn
  // back to back, so the acceptance draw does not serialize behind the
  // rate evaluation. Per-RNG draw order is unchanged — MMPP flips come
  // from the independent mod substream — so schedules stay byte-identical;
  // the only delta is one acceptance draw consumed by the terminal
  // over-the-horizon candidate, and an exhausted stream's RNG is never
  // read again.
  double t = static_cast<double>(s->next_us);
  const double envelope = s->envelope;
  const double end = static_cast<double>(s->end_us);
  while (true) {
    double u_gap = s->rng.NextDouble();
    double u_accept = s->rng.NextDouble();
    t += -std::log1p(-u_gap) / envelope * 1e6;
    if (t >= end) {
      s->next_us = -1;
      return;
    }
    int64_t t_us = static_cast<int64_t>(t);
    if (spec.process == ArrivalProcess::kMmpp) {
      while (s->switch_us <= t_us) {
        s->mmpp_state ^= 1;
        s->switch_us += static_cast<int64_t>(ExpGapUs(s->mod_rng, s->mod_rate));
      }
    }
    if (u_accept * envelope < RateAt(*s, t_us)) {
      s->next_us = t_us;
      return;
    }
  }
}

size_t ArrivalGenerator::NextBatch(size_t max, std::vector<Arrival>* out) {
  size_t appended = 0;
  while (appended < max) {
    int best = -1;
    for (size_t i = 0; i < streams_.size(); ++i) {
      if (streams_[i].next_us < 0) continue;
      if (best < 0 || streams_[i].next_us < streams_[best].next_us) {
        best = static_cast<int>(i);
      }
    }
    if (best < 0) break;
    out->push_back(Arrival{streams_[best].next_us,
                           static_cast<uint32_t>(best), next_seq_++});
    Advance(&streams_[best]);
    ++appended;
  }
  return appended;
}

bool ArrivalGenerator::exhausted() const {
  for (const StreamState& s : streams_) {
    if (s.next_us >= 0) return false;
  }
  return true;
}

Result<ArrivalSpec> ParseArrivalSpec(std::string_view text) {
  ArrivalSpec spec;
  bool have_process = false;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view pair = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("arrival spec field '" +
                                     std::string(pair) + "' is not key=value");
    }
    std::string_view key = pair.substr(0, eq);
    std::string_view value = pair.substr(eq + 1);
    if (key == "process") {
      bool found = false;
      for (const ProcessEntry& entry : kProcesses) {
        if (value == entry.name) {
          spec.process = entry.process;
          found = true;
          break;
        }
      }
      if (!found) {
        return Status::InvalidArgument("unknown arrival process '" +
                                       std::string(value) + "'");
      }
      have_process = true;
    } else if (key == "rate") {
      CB_ASSIGN_OR_RETURN(spec.rate, ParsePositiveDouble(key, value));
    } else if (key == "rate2") {
      CB_ASSIGN_OR_RETURN(spec.rate2, ParsePositiveDouble(key, value));
    } else if (key == "dwell") {
      CB_ASSIGN_OR_RETURN(spec.dwell, sim::ParseDuration(value));
    } else if (key == "start") {
      CB_ASSIGN_OR_RETURN(spec.start, sim::ParseDuration(value));
    } else if (key == "duration") {
      CB_ASSIGN_OR_RETURN(spec.duration, sim::ParseDuration(value));
    } else if (key == "shape") {
      size_t shape_pos = 0;
      while (shape_pos <= value.size()) {
        size_t plus = value.find('+', shape_pos);
        if (plus == std::string_view::npos) plus = value.size();
        std::string_view shape = value.substr(shape_pos, plus - shape_pos);
        shape_pos = plus + 1;
        if (shape == "diurnal") {
          spec.diurnal = true;
        } else if (shape == "ramp") {
          spec.ramp = true;
        } else if (shape == "spike") {
          spec.spike = true;
        } else {
          return Status::InvalidArgument("unknown rate shape '" +
                                         std::string(shape) + "'");
        }
        if (plus == value.size()) break;
      }
    } else if (key == "period") {
      CB_ASSIGN_OR_RETURN(spec.period, sim::ParseDuration(value));
    } else if (key == "amplitude") {
      std::string number(value);
      char* end = nullptr;
      spec.amplitude = std::strtod(number.c_str(), &end);
      if (end != number.c_str() + number.size() || number.empty()) {
        return Status::InvalidArgument("malformed amplitude '" + number + "'");
      }
    } else if (key == "ramp-to") {
      CB_ASSIGN_OR_RETURN(spec.ramp_to, ParsePositiveDouble(key, value));
    } else if (key == "spike-at") {
      CB_ASSIGN_OR_RETURN(spec.spike_at, sim::ParseDuration(value));
    } else if (key == "spike-duration") {
      CB_ASSIGN_OR_RETURN(spec.spike_duration, sim::ParseDuration(value));
    } else if (key == "spike-mag") {
      CB_ASSIGN_OR_RETURN(spec.spike_magnitude,
                          ParsePositiveDouble(key, value));
    } else if (key == "txns") {
      int64_t txns = 0;
      if (!util::ParseInt64(value, &txns)) {
        return Status::InvalidArgument("malformed txns '" + std::string(value) +
                                       "'");
      }
      spec.txns_per_session = static_cast<int>(txns);
    } else if (key == "think") {
      CB_ASSIGN_OR_RETURN(spec.think, sim::ParseDuration(value));
    } else if (key == "tenant") {
      spec.tenant = std::string(value);
    } else {
      return Status::InvalidArgument("unknown arrival spec key '" +
                                     std::string(key) + "'");
    }
  }
  if (!have_process) {
    return Status::InvalidArgument("arrival spec is missing process=");
  }
  CB_RETURN_IF_ERROR(Validate(spec));
  return spec;
}

Result<ArrivalPlan> ParseArrivalPlan(std::string_view text) {
  ArrivalPlan plan;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t semi = text.find(';', pos);
    if (semi == std::string_view::npos) semi = text.size();
    std::string_view piece = text.substr(pos, semi - pos);
    pos = semi + 1;
    if (piece.empty()) {
      if (semi == text.size()) break;
      continue;
    }
    CB_ASSIGN_OR_RETURN(ArrivalSpec spec, ParseArrivalSpec(piece));
    if (spec.tenant.empty()) {
      spec.tenant = "t" + std::to_string(plan.streams.size());
    }
    plan.streams.push_back(std::move(spec));
    if (semi == text.size()) break;
  }
  if (plan.streams.empty()) {
    return Status::InvalidArgument("arrival plan has no streams");
  }
  return plan;
}

std::string ArrivalPlanHelp() {
  return
      "arrival plan grammar: stream[;stream...], each stream key=value "
      "pairs:\n"
      "  process=        poisson | mmpp | fixed (required)\n"
      "  rate=           mean arrivals/second, > 0 (required; mmpp state 1)\n"
      "  rate2=          mmpp state-2 arrivals/second (> 0)\n"
      "  dwell=          mmpp mean state dwell (default 1s)\n"
      "  start=          stream window start offset (default 0s)\n"
      "  duration=       stream window length; absent = the run horizon\n"
      "  shape=          '+'-joined multiplicative rate shapes:\n"
      "                  diurnal (period=, amplitude=) | ramp (ramp-to=) |\n"
      "                  spike (spike-at=, spike-duration=, spike-mag=)\n"
      "  txns=           transactions per session (default 1)\n"
      "  think=          think time between a session's transactions\n"
      "  tenant=         stream label for per-tenant reporting\n"
      "example: process=poisson,rate=800,shape=diurnal+spike,period=20s,"
      "amplitude=0.5,spike-at=10s,spike-duration=2s,spike-mag=6";
}

}  // namespace cloudybench::load

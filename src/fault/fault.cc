#include "fault/fault.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace cloudybench::fault {

namespace {

using util::Result;
using util::Status;

struct KindEntry {
  FaultKind kind;
  const char* name;
};

constexpr KindEntry kKinds[] = {
    {FaultKind::kCrash, "crash"},
    {FaultKind::kCrashLoop, "crash-loop"},
    {FaultKind::kCorrelatedCrash, "correlated-crash"},
    {FaultKind::kLinkDegrade, "link-degrade"},
    {FaultKind::kLinkBlackhole, "link-blackhole"},
    {FaultKind::kDiskFailSlow, "disk-fail-slow"},
    {FaultKind::kReplayStall, "replay-stall"},
};

bool IsLinkTarget(std::string_view target) {
  return target == "link.storage" || target == "link.repl" ||
         target == "link.rdma";
}

bool IsNodeTarget(std::string_view target) {
  if (target == "rw" || target == "ro") return true;
  if (target.size() > 2 && target.substr(0, 2) == "ro") {
    return target.find_first_not_of("0123456789", 2) == std::string_view::npos;
  }
  return false;
}

bool IsDiskTarget(std::string_view target) {
  return target == "disk" || target == "storage" || target == "log";
}

/// Per-kind constraint check; the parser's last gate.
Status Validate(const FaultSpec& spec) {
  std::string prefix = std::string(FaultKindName(spec.kind)) + ": ";
  switch (spec.kind) {
    case FaultKind::kCrash:
      if (!IsNodeTarget(spec.target)) {
        return Status::InvalidArgument(prefix + "target must be rw or ro<N>");
      }
      break;
    case FaultKind::kCrashLoop:
    case FaultKind::kCorrelatedCrash:
      if (spec.target != "rw") {
        return Status::InvalidArgument(prefix + "target must be rw");
      }
      if (spec.kind == FaultKind::kCrashLoop) {
        if (spec.duration.us <= 0) {
          return Status::InvalidArgument(prefix + "needs duration > 0");
        }
        if (spec.magnitude <= 0.0) {
          return Status::InvalidArgument(
              prefix + "magnitude is the crash period in seconds (> 0)");
        }
      }
      break;
    case FaultKind::kLinkDegrade:
      if (!IsLinkTarget(spec.target)) {
        return Status::InvalidArgument(
            prefix + "target must be link.storage, link.repl or link.rdma");
      }
      if (spec.duration.us <= 0) {
        return Status::InvalidArgument(prefix + "needs duration > 0");
      }
      if (spec.magnitude < 1.0) {
        return Status::InvalidArgument(
            prefix + "magnitude is the degrade factor (>= 1)");
      }
      break;
    case FaultKind::kLinkBlackhole:
      if (!IsLinkTarget(spec.target)) {
        return Status::InvalidArgument(
            prefix + "target must be link.storage, link.repl or link.rdma");
      }
      if (spec.duration.us <= 0) {
        return Status::InvalidArgument(prefix + "needs duration > 0");
      }
      break;
    case FaultKind::kDiskFailSlow:
      if (!IsDiskTarget(spec.target)) {
        return Status::InvalidArgument(
            prefix + "target must be disk, storage or log");
      }
      if (spec.duration.us <= 0) {
        return Status::InvalidArgument(prefix + "needs duration > 0");
      }
      if (spec.magnitude < 1.0) {
        return Status::InvalidArgument(
            prefix + "magnitude is the slow-down factor (>= 1)");
      }
      break;
    case FaultKind::kReplayStall:
      if (spec.target != "replay") {
        return Status::InvalidArgument(prefix + "target must be replay");
      }
      if (spec.duration.us <= 0) {
        return Status::InvalidArgument(prefix + "needs duration > 0");
      }
      break;
  }
  if (spec.at.us < 0) {
    return Status::InvalidArgument(prefix + "at must be >= 0");
  }
  return Status::OK();
}

/// Every parse error carries the byte offset (within the full --faults=
/// string) and the offending token, so a bad spec buried in a long plan is
/// findable without bisecting.
Status SpecError(size_t offset, std::string_view token, std::string_view msg) {
  std::ostringstream out;
  out << "at byte " << offset << ", token '" << token << "': " << msg;
  return Status::InvalidArgument(out.str());
}

}  // namespace

const char* FaultKindName(FaultKind kind) {
  for (const KindEntry& entry : kKinds) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

std::string FaultSpec::ToString() const {
  std::ostringstream out;
  out << FaultKindName(kind) << " target=" << target
      << " at=" << sim::FormatDuration(at);
  if (duration.us > 0) out << " duration=" << sim::FormatDuration(duration);
  if (magnitude > 0.0) out << " magnitude=" << magnitude;
  return out.str();
}

std::string FaultSpec::ToSpecString() const {
  std::ostringstream out;
  out << "kind=" << FaultKindName(kind) << ",target=" << target
      << ",at=" << sim::FormatDuration(at);
  if (duration.us > 0) out << ",duration=" << sim::FormatDuration(duration);
  if (magnitude > 0.0) {
    out << ",magnitude=";
    // Integral magnitudes print without a decimal point so the string is
    // stable under a parse/serialize round trip.
    if (magnitude == static_cast<double>(static_cast<int64_t>(magnitude))) {
      out << static_cast<int64_t>(magnitude);
    } else {
      out << magnitude;
    }
  }
  return out.str();
}

sim::SimTime FaultPlan::FirstInjectAt() const {
  sim::SimTime first{0};
  bool any = false;
  for (const FaultSpec& spec : specs) {
    if (!any || spec.at < first) first = spec.at;
    any = true;
  }
  return first;
}

sim::SimTime FaultPlan::LastClearAt() const {
  sim::SimTime last{0};
  for (const FaultSpec& spec : specs) {
    sim::SimTime clear = spec.at + spec.duration;
    if (clear > last) last = clear;
  }
  return last;
}

std::string FaultPlan::ToPlanString() const {
  std::string out;
  for (const FaultSpec& spec : specs) {
    if (!out.empty()) out += ';';
    out += spec.ToSpecString();
  }
  return out;
}

namespace {

/// Spec parser core. `base` is the spec's byte offset within the enclosing
/// plan string (0 when parsing a lone spec), so error offsets are absolute.
Result<FaultSpec> ParseFaultSpecAt(std::string_view text, size_t base) {
  FaultSpec spec;
  bool have_kind = false;
  bool have_target = false;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t pair_start = pos;
    size_t comma = text.find(',', pos);
    if (comma == std::string_view::npos) comma = text.size();
    std::string_view pair = text.substr(pos, comma - pos);
    pos = comma + 1;
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      return SpecError(base + pair_start, pair, "field is not key=value");
    }
    std::string_view key = pair.substr(0, eq);
    std::string_view value = pair.substr(eq + 1);
    size_t value_off = base + pair_start + eq + 1;
    if (key == "kind") {
      bool found = false;
      for (const KindEntry& entry : kKinds) {
        if (value == entry.name) {
          spec.kind = entry.kind;
          found = true;
          break;
        }
      }
      if (!found) {
        return SpecError(value_off, value, "unknown fault kind");
      }
      have_kind = true;
    } else if (key == "target") {
      spec.target = std::string(value);
      have_target = true;
    } else if (key == "at") {
      Result<sim::SimTime> at = sim::ParseDuration(value);
      if (!at.ok()) {
        return SpecError(value_off, value, at.status().message());
      }
      spec.at = *at;
    } else if (key == "duration") {
      Result<sim::SimTime> duration = sim::ParseDuration(value);
      if (!duration.ok()) {
        return SpecError(value_off, value, duration.status().message());
      }
      spec.duration = *duration;
    } else if (key == "magnitude") {
      std::string number(value);
      char* end = nullptr;
      spec.magnitude = std::strtod(number.c_str(), &end);
      if (end != number.c_str() + number.size() || number.empty()) {
        return SpecError(value_off, value, "malformed magnitude");
      }
    } else {
      return SpecError(base + pair_start, key, "unknown fault spec key");
    }
  }
  if (!have_kind) {
    return SpecError(base, text, "fault spec is missing kind=");
  }
  if (!have_target) {
    return SpecError(base, text, "fault spec is missing target=");
  }
  Status valid = Validate(spec);
  if (!valid.ok()) {
    return SpecError(base, text, valid.message());
  }
  return spec;
}

}  // namespace

Result<FaultSpec> ParseFaultSpec(std::string_view text) {
  return ParseFaultSpecAt(text, 0);
}

Result<FaultPlan> ParseFaultPlan(std::string_view text) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t piece_start = pos;
    size_t semi = text.find(';', pos);
    if (semi == std::string_view::npos) semi = text.size();
    std::string_view piece = text.substr(pos, semi - pos);
    pos = semi + 1;
    if (piece.empty()) {
      if (semi == text.size()) break;
      continue;
    }
    CB_ASSIGN_OR_RETURN(FaultSpec spec, ParseFaultSpecAt(piece, piece_start));
    plan.specs.push_back(std::move(spec));
    if (semi == text.size()) break;
  }
  return plan;
}

std::string FaultPlanHelp() {
  return
      "fault plan grammar: spec[;spec...], each spec key=value pairs:\n"
      "  kind=       crash | crash-loop | correlated-crash | link-degrade |\n"
      "              link-blackhole | disk-fail-slow | replay-stall\n"
      "  target=     rw | ro<N> | link.storage | link.repl | link.rdma |\n"
      "              disk | storage | log | replay\n"
      "  at=         offset from measurement start (5s, 250ms, 1500us)\n"
      "  duration=   fault window for clearing kinds\n"
      "  magnitude=  degrade/slow-down factor; crash-loop period seconds\n"
      "example: kind=link-degrade,target=link.storage,at=5s,duration=10s,"
      "magnitude=16";
}

}  // namespace cloudybench::fault

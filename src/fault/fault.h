#ifndef CLOUDYBENCH_FAULT_FAULT_H_
#define CLOUDYBENCH_FAULT_FAULT_H_

#include <string>
#include <string_view>
#include <vector>

#include "sim/sim_time.h"
#include "util/result.h"

namespace cloudybench::fault {

/// The fault taxonomy (DESIGN.md §4g). Each kind maps to a hook in exactly
/// one substrate layer, so a plan can describe cross-layer fault schedules
/// while every individual fault stays mechanically simple.
enum class FaultKind {
  /// RW or RO process crash; recovery follows the SUT's restart model.
  kCrash,
  /// Repeated RW crashes: one injection every `magnitude` seconds for
  /// `duration` (crash loop / flapping pod).
  kCrashLoop,
  /// RW and every RO crash together (AZ outage, correlated hardware batch).
  kCorrelatedCrash,
  /// Link latency x `magnitude` and bandwidth / `magnitude` for `duration`.
  kLinkDegrade,
  /// Link delivers nothing for `duration` (partition / switch brownout).
  kLinkBlackhole,
  /// Disk IOPS ramp down to provisioned/`magnitude` (and latency up x
  /// `magnitude`) over `duration`, then recover — the canonical fail-slow.
  kDiskFailSlow,
  /// Replica replay lanes stop applying for `duration`; backlog grows.
  kReplayStall,
};

/// Stable wire name ("crash-loop", "disk-fail-slow", ...).
const char* FaultKindName(FaultKind kind);

/// One scheduled fault. `at` is relative to the plan's arming time (the
/// start of the measurement window), so the same plan is reusable across
/// cells.
struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  /// What to hit. Resolved by the injector against the target cluster:
  ///   "rw"            the current RW node
  ///   "ro" / "ro<N>"  RO replica (0 when no index given)
  ///   "link.storage"  every node->storage link
  ///   "link.repl"     every replication link
  ///   "link.rdma"     CDB4's remote-buffer fabric
  ///   "disk"          the RW's local NVMe device (RDS)
  ///   "storage"       the shared storage service's backing device
  ///   "log"           the log device
  ///   "replay"        every replica's replay pipeline
  /// Targets a SUT does not have are skipped at arm time, so one plan can
  /// span all five architectures.
  std::string target;
  sim::SimTime at{0};
  sim::SimTime duration{0};
  double magnitude = 0.0;

  /// "crash-loop target=rw at=5s duration=24s magnitude=8".
  std::string ToString() const;
  /// Plan-grammar form ("kind=crash-loop,target=rw,at=5s,duration=24s,
  /// magnitude=8"); round-trips through ParseFaultSpec, so fuzzer-generated
  /// and shrunk plans (src/chaos) are replayable verbatim via --faults=.
  std::string ToSpecString() const;
};

/// A deterministic fault schedule: the unit benches and the availability
/// matrix arm. Ordering is the textual order of the plan string.
struct FaultPlan {
  std::vector<FaultSpec> specs;

  bool empty() const { return specs.empty(); }
  /// Earliest injection offset (0 for an empty plan).
  sim::SimTime FirstInjectAt() const;
  /// Latest offset at which any fault clears; crash kinds, which have no
  /// duration, count their injection time.
  sim::SimTime LastClearAt() const;
  /// Semicolon-joined ToSpecString() of every spec; ParseFaultPlan of the
  /// result reproduces this plan exactly (the chaos fuzzer asserts it).
  std::string ToPlanString() const;
};

/// Parses one "key=value,key=value" spec. Keys: kind (required), target
/// (required), at, duration, magnitude. Unknown keys, unknown kinds or
/// targets, and per-kind constraint violations (e.g. link-degrade without a
/// positive duration) are kInvalidArgument — bench mains turn that into
/// usage + exit 2, matching the BenchArgs convention. Error messages name
/// the byte offset and the offending token ("at byte 5, token 'meteor':
/// unknown fault kind") so a malformed spec inside a long plan string is
/// findable without bisecting it.
util::Result<FaultSpec> ParseFaultSpec(std::string_view text);

/// Parses a semicolon-separated plan ("spec;spec;..."); empty pieces are
/// skipped so trailing semicolons are fine. An empty string is the empty
/// plan (valid: no faults).
util::Result<FaultPlan> ParseFaultPlan(std::string_view text);

/// Flag-help block describing the plan grammar (printed by bench usage).
std::string FaultPlanHelp();

}  // namespace cloudybench::fault

#endif  // CLOUDYBENCH_FAULT_FAULT_H_

#ifndef CLOUDYBENCH_BENCH_BENCH_COMMON_H_
#define CLOUDYBENCH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/collector.h"
#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "core/workload_manager.h"
#include "runner/oltp_cell.h"
#include "runner/runner.h"
#include "runner/section_cells.h"
#include "sut/profiles.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace cloudybench::bench {

/// One command-line flag. A `prefix` ending in '=' takes a value
/// ("--faults=PLAN" stores "PLAN"); otherwise the flag is boolean and
/// stores "1".
struct BenchFlag {
  const char* prefix;
  std::string* value;
  const char* help;
};

/// Common command-line handling for the reproduction benches, which all run
/// their cells on runner::MatrixRunner. Every bench accepts --full
/// (paper-scale sweep; the default is a representative subset so
/// `for b in bench/*; do $b; done` stays quick), --seed=N, and the runner's
/// flag set — --jobs=N, --jsonl= and the per-cell --*-template= artifact
/// paths — parsed into `runner`. Bench-specific flags come in as `extra`.
///
/// Anything else — including a typo like `--ful` — prints a usage message
/// and exits with status 2 instead of silently running the wrong sweep.
struct BenchArgs {
  bool full = false;
  uint64_t seed = 42;
  runner::RunnerOptions runner;
  std::string usage;  ///< rendered usage text (every flag), for UsageError

  static std::string Usage(const char* argv0,
                           const std::vector<BenchFlag>& flags) {
    std::string out = util::StringPrintf("usage: %s", argv0);
    for (const BenchFlag& flag : flags) {
      out += util::StringPrintf(" [%s%s]", flag.prefix,
                                util::EndsWith(flag.prefix, "=") ? "..." : "");
    }
    out += "\n";
    for (const BenchFlag& flag : flags) {
      out += util::StringPrintf("  %-10s %s\n", flag.prefix, flag.help);
    }
    return out;
  }

  /// Prints `message` and the usage text to stderr and exits 2: the answer
  /// to an unknown flag or a malformed flag value.
  [[noreturn]] void UsageError(const std::string& message) const {
    std::fprintf(stderr, "%s\n%s", message.c_str(), usage.c_str());
    std::exit(2);
  }

  /// Parses argv; also quiets logging to warnings so the tables stay clean.
  static BenchArgs Parse(int argc, char** argv,
                         const std::vector<BenchFlag>& extra = {}) {
    util::SetLogLevel(util::LogLevel::kWarning);
    BenchArgs args;
    std::string full, seed = "42", jobs = "0";
    runner::RunnerOptions& o = args.runner;
    std::vector<BenchFlag> flags = {
        {"--full", &full, "paper-scale sweep (default: representative subset)"},
        {"--seed=", &seed, "RNG seed (default 42)"},
        {"--jobs=", &jobs, "matrix worker threads; 0 = all hardware threads"},
        {"--jsonl=", &o.jsonl_path, "write per-cell result rows (JSONL)"},
        {"--trace-template=", &o.trace_template,
         "per-cell Chrome trace path; {id}/{index}/{sut}/{sf}/{con}/"
         "{pattern}/{seed} expand"},
        {"--metrics-template=", &o.metrics_template,
         "per-cell metrics snapshot path (same placeholders)"},
        {"--timeline-csv-template=", &o.timeline_csv_template,
         "per-cell timeline CSV path (same placeholders)"},
        {"--timeline-jsonl-template=", &o.timeline_jsonl_template,
         "per-cell timeline JSONL path (same placeholders)"},
        {"--profile-collapsed-template=", &o.profile_collapsed_template,
         "per-cell collapsed-stack profile path (same placeholders)"},
        {"--profile-chrome-template=", &o.profile_chrome_template,
         "per-cell merged-tree Chrome trace path (same placeholders)"}};
    flags.insert(flags.end(), extra.begin(), extra.end());
    args.usage = Usage(argv[0], flags);
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a == "--help" || a == "-h") {
        std::fputs(args.usage.c_str(), stdout);
        std::exit(0);
      }
      bool matched = false;
      for (const BenchFlag& flag : flags) {
        bool valued = util::EndsWith(flag.prefix, "=");
        if (valued ? util::StartsWith(a, flag.prefix) : a == flag.prefix) {
          *flag.value = valued ? a.substr(std::strlen(flag.prefix)) : "1";
          matched = true;
          break;
        }
      }
      if (matched) continue;
      args.UsageError(util::StringPrintf("%s: unknown flag '%s'", argv[0],
                                         a.c_str()));
    }
    int64_t v = 0;
    CB_CHECK(util::ParseInt64(seed, &v)) << "bad --seed";
    args.seed = static_cast<uint64_t>(v);
    CB_CHECK(util::ParseInt64(jobs, &v) && v >= 0 && v <= 4096)
        << "bad --jobs (want 0..4096)";
    args.runner.jobs = static_cast<int>(v);
    args.full = !full.empty();
    return args;
  }
};

/// Unwraps a parsed --faults= / --arrivals= style plan, or prints
/// "<argv0>: bad <label>: <error>" and the grammar `help` to stderr and
/// exits 2 (the BenchArgs convention for malformed input).
template <typename T>
T PlanOrExit(util::Result<T> parsed, const char* argv0, const char* label,
             const std::string& help) {
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s: bad %s: %s\n%s\n", argv0, label,
                 parsed.status().message().c_str(), help.c_str());
    std::exit(2);
  }
  return std::move(parsed).value();
}

inline std::string F0(double v) { return util::FormatDouble(v, 0); }
inline std::string F1(double v) { return util::FormatDouble(v, 1); }
inline std::string F2(double v) { return util::FormatDouble(v, 2); }

}  // namespace cloudybench::bench

#endif  // CLOUDYBENCH_BENCH_BENCH_COMMON_H_

#ifndef CLOUDYBENCH_BENCH_BENCH_COMMON_H_
#define CLOUDYBENCH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
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

  static void PrintUsage(FILE* out, const char* argv0,
                         const std::vector<BenchFlag>& flags) {
    std::fprintf(out, "usage: %s", argv0);
    for (const BenchFlag& flag : flags) {
      std::fprintf(out, " [%s%s]", flag.prefix,
                   util::EndsWith(flag.prefix, "=") ? "..." : "");
    }
    std::fprintf(out, "\n");
    for (const BenchFlag& flag : flags) {
      std::fprintf(out, "  %-10s %s\n", flag.prefix, flag.help);
    }
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
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      if (a == "--help" || a == "-h") {
        PrintUsage(stdout, argv[0], flags);
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
      std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], a.c_str());
      PrintUsage(stderr, argv[0], flags);
      std::exit(2);
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

inline std::string F0(double v) { return util::FormatDouble(v, 0); }
inline std::string F1(double v) { return util::FormatDouble(v, 1); }
inline std::string F2(double v) { return util::FormatDouble(v, 2); }

}  // namespace cloudybench::bench

#endif  // CLOUDYBENCH_BENCH_BENCH_COMMON_H_

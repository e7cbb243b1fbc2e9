#ifndef CLOUDYBENCH_BENCH_BENCH_COMMON_H_
#define CLOUDYBENCH_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/collector.h"
#include "core/evaluators.h"
#include "core/sales_workload.h"
#include "core/workload_manager.h"
#include "runner/cli.h"
#include "runner/oltp_cell.h"
#include "runner/runner.h"
#include "runner/section_cells.h"
#include "sut/profiles.h"
#include "util/logging.h"
#include "util/result.h"
#include "util/string_util.h"
#include "util/table_printer.h"

namespace cloudybench::bench {

/// Common command-line handling for the reproduction benches, which all run
/// their cells on runner::MatrixRunner. Every bench accepts --full
/// (paper-scale sweep; the default is a representative subset so
/// `for b in bench/*; do $b; done` stays quick), --seed=N, and the runner's
/// flag set (runner::ParseCommandLine) parsed into `runner`. Bench-specific
/// flags come in as `extra`.
struct BenchArgs : runner::CommandLine {
  bool full = false;
  uint64_t seed = 42;

  /// Parses argv; also quiets logging to warnings so the tables stay clean.
  static BenchArgs Parse(int argc, char** argv,
                         const std::vector<runner::CliFlag>& extra = {}) {
    util::SetLogLevel(util::LogLevel::kWarning);
    std::string full, seed = "42";
    BenchArgs args;
    static_cast<runner::CommandLine&>(args) = runner::ParseCommandLine(
        argc, argv,
        {{"--full", &full,
          "paper-scale sweep (default: representative subset)"},
         {"--seed=", &seed, "RNG seed (default 42)"}},
        extra);
    int64_t v = 0;
    CB_CHECK(util::ParseInt64(seed, &v)) << "bad --seed";
    args.seed = static_cast<uint64_t>(v);
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

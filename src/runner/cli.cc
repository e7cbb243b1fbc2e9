#include "runner/cli.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "util/logging.h"
#include "util/string_util.h"

namespace cloudybench::runner {

void CommandLine::UsageError(const std::string& message) const {
  std::fprintf(stderr, "%s\n%s", message.c_str(), usage.c_str());
  std::exit(2);
}

CommandLine ParseCommandLine(int argc, char** argv,
                             const std::vector<CliFlag>& leading,
                             const std::vector<CliFlag>& trailing,
                             const char* positional_name) {
  CommandLine cli;
  std::string jobs = "0";
  RunnerOptions& o = cli.runner;
  std::vector<CliFlag> flags = leading;
  flags.insert(
      flags.end(),
      {{"--jobs=", &jobs, "matrix worker threads; 0 = all hardware threads"},
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
        "per-cell merged-tree Chrome trace path (same placeholders)"}});
  flags.insert(flags.end(), trailing.begin(), trailing.end());

  cli.usage = util::StringPrintf("usage: %s", argv[0]);
  for (const CliFlag& flag : flags) {
    cli.usage += util::StringPrintf(
        " [%s%s]", flag.prefix,
        util::EndsWith(flag.prefix, "=") ? "..." : "");
  }
  if (positional_name != nullptr) {
    cli.usage += util::StringPrintf(" [%s]", positional_name);
  }
  cli.usage += "\n";
  for (const CliFlag& flag : flags) {
    cli.usage += util::StringPrintf("  %-10s %s\n", flag.prefix, flag.help);
  }

  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      std::fputs(cli.usage.c_str(), stdout);
      std::exit(0);
    }
    bool matched = false;
    for (const CliFlag& flag : flags) {
      bool valued = util::EndsWith(flag.prefix, "=");
      if (valued ? util::StartsWith(a, flag.prefix) : a == flag.prefix) {
        *flag.value = valued ? a.substr(std::strlen(flag.prefix)) : "1";
        matched = true;
        break;
      }
    }
    if (matched) continue;
    if (positional_name != nullptr && cli.positional.empty() &&
        !util::StartsWith(a, "-")) {
      cli.positional = a;
      continue;
    }
    cli.UsageError(
        util::StringPrintf("%s: unknown flag '%s'", argv[0], a.c_str()));
  }
  int64_t v = 0;
  CB_CHECK(util::ParseInt64(jobs, &v) && v >= 0 && v <= 4096)
      << "bad --jobs (want 0..4096)";
  cli.runner.jobs = static_cast<int>(v);
  return cli;
}

}  // namespace cloudybench::runner

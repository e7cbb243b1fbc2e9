// The CloudyBench testbed CLI: runs the evaluations selected in a props
// configuration file (see examples/configs/demo.props and the key reference
// in src/runner/testbed.h). Each section is one cell on the matrix runner,
// so the runner's flags apply: --jobs=N, --jsonl= and the per-cell
// --*-template= artifact paths.
//
//   $ ./examples/cloudybench_cli examples/configs/demo.props
//   $ ./examples/cloudybench_cli --jsonl=rows.jsonl   # built-in demo config

#include <cstdio>

#include "runner/cli.h"
#include "runner/testbed.h"
#include "util/logging.h"
#include "util/properties.h"

using namespace cloudybench;

namespace {

constexpr const char kDemoConfig[] = R"(
# Built-in demo: evaluate CDB3 end to end.
sut = cdb3
scale_factor = 1
seed = 42

[workload]
pattern = readwrite
distribution = uniform

[oltp]
enable = true
concurrency = 100
seconds = 5

[elasticity]
enable = true
tau = 110
slot_seconds = 6
# Custom pattern via the paper's extensibility keys:
elastic_testTime = 4
first_con = 11
second_con = 88
third_con = 44
fourth_con = 11

[tenancy]
enable = true
pattern = staggered_high
tenants = 3
tau = 330

[failover]
enable = true
node = rw

[lag]
enable = true
insert = 60
update = 30
delete = 10
)";

}  // namespace

int main(int argc, char** argv) {
  util::SetLogLevel(util::LogLevel::kWarning);
  runner::CommandLine cli =
      runner::ParseCommandLine(argc, argv, {}, {}, "config.props");
  util::Properties props;
  util::Status parsed = cli.positional.empty()
                            ? props.ParseString(kDemoConfig)
                            : props.ParseFile(cli.positional);
  if (!parsed.ok()) {
    std::fprintf(stderr, "config error: %s\n", parsed.ToString().c_str());
    return 1;
  }
  runner::Testbed testbed(std::move(props), cli.runner);
  util::Status status = testbed.RunAll();
  if (!status.ok()) {
    std::fprintf(stderr, "testbed error: %s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}

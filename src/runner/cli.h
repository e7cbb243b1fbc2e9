#ifndef CLOUDYBENCH_RUNNER_CLI_H_
#define CLOUDYBENCH_RUNNER_CLI_H_

#include <string>
#include <vector>

#include "runner/runner.h"

namespace cloudybench::runner {

/// One command-line flag. A `prefix` ending in '=' takes a value
/// ("--faults=PLAN" stores "PLAN"); otherwise the flag is boolean and
/// stores "1".
struct CliFlag {
  const char* prefix;
  std::string* value;
  const char* help;
};

/// The command line of a program that runs its cells on MatrixRunner.
struct CommandLine {
  RunnerOptions runner;  ///< --jobs=N, --jsonl=, the --*-template= paths
  std::string positional;  ///< the positional argument; "" when absent
  std::string usage;  ///< rendered usage text (every flag), for UsageError

  /// Prints `message` and the usage text to stderr and exits 2: the answer
  /// to an unknown flag or a malformed flag value.
  [[noreturn]] void UsageError(const std::string& message) const;
};

/// The one parser of the runner flag set, shared by the benches and
/// cloudybench_cli: parses argv against `leading`, the runner's flags and
/// `trailing` (in that usage order), plus at most one positional argument
/// named `positional_name` (none when null). --help prints the usage and
/// exits 0; anything else, including a typo like `--ful`, is a UsageError
/// instead of silently running the wrong sweep.
CommandLine ParseCommandLine(int argc, char** argv,
                             const std::vector<CliFlag>& leading,
                             const std::vector<CliFlag>& trailing = {},
                             const char* positional_name = nullptr);

}  // namespace cloudybench::runner

#endif  // CLOUDYBENCH_RUNNER_CLI_H_

#pragma once
// The rooftune CLI subcommands, separated from main() so they can be tested.
// `rooftune help` lists the commands and `rooftune <command> --help` the
// options that command reads; every other option is rejected.  The tuning
// commands are rows of the kernel table (cli/kernels.hpp).

#include <iosfwd>
#include <string>
#include <vector>

namespace rooftune::cli {

/// Entry point used by main(); returns the process exit code.  Output goes
/// to `out`, errors to `err` (injectable for tests).
int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

}  // namespace rooftune::cli

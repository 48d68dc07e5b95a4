// rooftune_bench — runs one suite workload per process and prints the
// result document as one JSON line.  bench/suite/run.py is the intended
// front end; see bench/suite/README.md.
//
//   rooftune_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                  [--workdir DIR] [--spans FILE]

#include <iostream>
#include <string>

#include "harness/run_loop.hpp"

namespace {

int usage(const std::string& error) {
  std::cerr << "rooftune_bench: " << error << "\n"
            << "usage: rooftune_bench --workload NAME [--seed N] [--seconds S] "
               "[--trace 0|1] [--workdir DIR] [--spans FILE]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rooftune::suite;
  RunOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (i + 1 >= argc) return usage(arg + " wants a value");
      const std::string value = argv[++i];
      if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        options.trace = value != "0";
      } else if (arg == "--workdir") {
        options.workdir = value;
      } else if (arg == "--spans") {
        options.spans_path = value;
      } else {
        return usage("unknown option " + arg);
      }
    }
  } catch (const std::exception&) {
    return usage("bad numeric value");
  }
  if (options.workload.empty()) return usage("--workload is required");
  try {
    std::cout << run_workload(options) << std::endl;
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  return 0;
}

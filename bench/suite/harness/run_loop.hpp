#pragma once
// One benchmark run: a fixed number of timed set-ups and passes, the traced
// passes and layer probes when tracing, checks, and the result document
// run.py turns into its last output line.

#include <cstdint>
#include <string>

#include "harness/workload.hpp"

namespace rooftune::suite {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2021;
  /// Run length: WorkloadSpec::passes(seconds) untraced passes, or half as
  /// many untraced/traced pairs (at least one) when tracing.
  double seconds = 10.0;
  /// Traced run: alternate untraced and traced passes, then probe layers.
  bool trace = false;
  /// Scratch directory for artifacts (created if missing).
  std::string workdir = ".";
  /// Traced runs write the first traced pass's spans here as Chrome
  /// trace-event JSON (empty: do not write).
  std::string spans_path;
};

/// Run one workload and return the result document (JSON object).
std::string run_workload(const RunOptions& options);

/// Same, with `factory` as the set-up instead of the named workload's (the
/// run length and the document's name are still options.workload's).
std::string run_workload(const RunOptions& options, const WorkloadFactory& factory);

}  // namespace rooftune::suite

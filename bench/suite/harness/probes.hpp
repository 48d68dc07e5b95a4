#pragma once
// Layer probes: the per-layer metrics whose metrics.hpp source is "probe".
// Every traced run executes the same probes after its traced pass, so a
// probe reads the same on every workload; each one times a single layer on
// fixed inputs drawn from the run's seed.

#include <map>
#include <string>
#include <vector>

#include "harness/workload.hpp"

namespace rooftune::suite {

/// Run every probe; the native kernels' outputs are verified into `checks`.
std::map<std::string, double> run_probes(const RunContext& ctx, std::vector<Check>& checks);

}  // namespace rooftune::suite

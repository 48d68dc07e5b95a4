#pragma once
// The grid-6 scenario shared by three workloads: gold6148, one socket,
// core::dgemm_scaled_space(6) (11191 configurations), C+I+O stop
// conditions, options spelled exactly as `rooftune dgemm --machine gold6148
// --grid-scale 6 --seed N` spells them.
//
//   grid6-pipeline     four strategies on the EvalPool with stragglers
//   grid6-artifacts    racing + exhaustive writing journal, export, profile
//   artifact-readback  reading those artifacts back

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/config.hpp"
#include "harness/workload.hpp"

namespace rooftune::suite {

/// The grid-6 optimum the strategies are scored against: the best
/// configuration of an exhaustive C+I+O run on one worker, and its
/// noise-free rate on the simulator's response surface.
struct Grid6Reference {
  core::Configuration best;
  double surface_gflops = 0.0;
};

/// Compute the reference for `seed` (grid6-pipeline's set-up).
Grid6Reference grid6_reference(std::uint64_t seed);

/// grid6-pipeline, scored against `reference` instead of a freshly
/// computed one.
std::unique_ptr<Workload> make_grid6_pipeline(const RunContext& ctx,
                                              Grid6Reference reference);

/// Where grid6-artifacts writes `strategy`'s ("racing", "exhaustive")
/// artifact of `kind` ("journal", "export", "profile") under `dir`.
std::string grid6_artifact_path(const std::string& dir, const std::string& strategy,
                                const std::string& kind);

/// The directory artifact-readback's set-up writes its artifacts to.
std::string readback_dir(const RunContext& ctx);

}  // namespace rooftune::suite

#pragma once
// End-to-end roofline construction: autotune DGEMM for each socket
// configuration (compute ceilings) and TRIAD over the working-set sweep
// (memory ceilings for L3 and DRAM), then assemble the model.  This is the
// tool the paper's title promises: "automatically obtaining system Roofline
// models" (§VII).

#include <cstdint>
#include <optional>
#include <utility>

#include "core/autotuner.hpp"
#include "core/evaluator.hpp"
#include "core/techniques.hpp"
#include "roofline/roofline.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune::roofline {

struct BuilderOptions {
  /// Tuner for the DGEMM/TRIAD searches; defaults to the paper's
  /// recommended C+I+Outer on the Table I base configuration.
  core::TunerOptions tuner = core::technique_options(core::Technique::CIOuter);
  std::uint64_t prune_min_count = 10;  ///< overrides tuner.prune_min_count
  /// A TRIAD configuration counts as DRAM-resident when its working set is
  /// at least this multiple of the reachable L3 capacity.
  double dram_working_set_factor = 8.0;
  std::uint64_t seed = 2021;
  /// Space overrides (defaults: the paper's reduced DGEMM space and the
  /// 3 KiB–768 MiB TRIAD sweep).  Native runs on modest hosts should pass a
  /// smaller DGEMM space — the full 96-point sweep multiplies 10-second
  /// budgets by 96 configurations.
  std::optional<core::SearchSpace> dgemm_space;
  std::optional<core::SearchSpace> triad_space;
  /// For native runs: a hardware description of the host (e.g. from
  /// simhw::parse_machine_spec) so the report can include theoretical peaks
  /// and utilization, and so the DRAM working-set threshold can use the
  /// real L3 capacity.  Ignored by build_simulated.
  std::optional<simhw::MachineSpec> native_spec;
};

/// Build the full roofline model for a simulated machine: per socket count
/// 1..sockets, a DGEMM compute ceiling plus L3 and DRAM memory ceilings —
/// for a two-socket system this yields the paper's Fig. 1 structure (two
/// compute roofs, four memory roofs).
RooflineModel build_simulated(const simhw::MachineSpec& machine,
                              const BuilderOptions& options = {});

/// Build a roofline model on the host machine using the native backends.
/// Theoretical peaks are unknown (no vendor sheet is consulted), so
/// utilization fields are unset; sockets are treated as 1.
RooflineModel build_native(const BuilderOptions& options = {});

/// Measure one compute ceiling with the given backend (exposed so examples
/// can tune a single configuration set).
ComputeCeiling measure_dgemm_ceiling(core::Backend& backend, const std::string& name,
                                     util::GFlops theoretical,
                                     const BuilderOptions& options);

/// Measure the L3 and DRAM ceilings from one TRIAD sweep.
std::pair<MemoryCeiling, MemoryCeiling> measure_triad_ceilings(
    core::Backend& backend, const std::string& suffix, util::GBps dram_theoretical,
    util::Bytes l3_capacity, const BuilderOptions& options);

/// §VII future-work extension: measure the full L1 / L2 / L3 / DRAM
/// bandwidth hierarchy.  The backend must model inner caches
/// (simhw::SimOptions::model_inner_caches); each level is autotuned over
/// working sets confined to its capacity window so outer levels cannot
/// inflate it.  Levels whose window contains no sweep point are skipped.
std::vector<MemoryCeiling> measure_cache_hierarchy(core::Backend& backend,
                                                   const simhw::MachineSpec& machine,
                                                   int sockets_used,
                                                   const BuilderOptions& options);

}  // namespace rooftune::roofline

#pragma once
// The kernel table behind the tuning commands (dgemm, triad, spmv, stencil,
// pipe).  Each entry holds what is particular to one kernel: its options,
// its search space and its backends.  The CLI dispatch, `rooftune help`,
// `rooftune <kernel> --help` and `rooftune export --journal` all read this
// table, and one tuning sequence (cmd_tune in commands.cpp) runs every
// entry, so adding a kernel is one entry plus its space and backend
// (docs/kernels.md).

#include <functional>
#include <memory>
#include <span>
#include <string_view>

#include "cli/args.hpp"
#include "core/backend.hpp"
#include "core/search_space.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune::cli {

struct KernelSpec {
  /// Builds one backend instance; called once for the serial backend and
  /// once per pool worker under --workers.
  using BackendFactory = std::function<std::unique_ptr<core::Backend>()>;

  const char* name;   ///< command, journal benchmark and export name
  const char* usage;  ///< description in `rooftune help`
  /// The kernel's own options (null: none).
  void (*add_options)(ArgParser&);
  /// The search space under the parsed options; with no options given it is
  /// the kernel's standard space, which `rooftune export` reconstructs over.
  core::SearchSpace (*space)(const ArgParser&);
  /// Simulated backend on `machine` under `sim`.  Null for kernels that only
  /// run on the host (pipe): they take no machine, simulator or parallel
  /// options.
  BackendFactory (*sim)(const ArgParser&, const simhw::MachineSpec& machine,
                        simhw::SimOptions sim);
  /// Host backend, used under --native (always, for host-only kernels).
  /// Null: --native is refused.
  std::unique_ptr<core::Backend> (*native)(const ArgParser&);
};

/// Every kernel the CLI tunes, in `rooftune help` order.
std::span<const KernelSpec> kernels();

/// The entry named `name`, or null.
const KernelSpec* find_kernel(std::string_view name);

/// --arena on|off (default on): workspace reuse for the native backends and
/// the simulator's setup-cost model.
bool arena_enabled(const ArgParser& parser);

}  // namespace rooftune::cli

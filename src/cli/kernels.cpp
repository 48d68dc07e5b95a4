#include "cli/kernels.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/native_backend.hpp"
#include "core/pipe_backend.hpp"
#include "core/spaces.hpp"
#include "util/strings.hpp"

namespace rooftune::cli {

namespace {

void add_dgemm_options(ArgParser& parser) {
  parser.add_flag("small-space", "use the narrowed power-of-two DGEMM space");
  parser.add_option("grid-scale",
                    "subdivide every octave of the reduced space into this "
                    "many geometric steps (1 = the paper's 96-config grid, "
                    "6 ~ 11k configs; pairs with --strategy surrogate)");
}

int grid_scale(const ArgParser& parser) {
  return static_cast<int>(
      int_option(parser, "grid-scale", 1, 1, std::numeric_limits<int>::max()));
}

core::SearchSpace dgemm_space(const ArgParser& parser) {
  const int scale = grid_scale(parser);
  if (parser.has("small-space")) {
    if (scale > 1) {
      throw std::invalid_argument(
          "--small-space has no --grid-scale variant; drop one of them");
    }
    return core::dgemm_narrowed_space();
  }
  return scale > 1 ? core::dgemm_scaled_space(scale) : core::dgemm_reduced_space();
}

KernelSpec::BackendFactory dgemm_sim(const ArgParser& parser,
                                     const simhw::MachineSpec& machine,
                                     simhw::SimOptions sim) {
  sim.grid_scale = grid_scale(parser);
  return [machine, sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
  };
}

std::unique_ptr<core::Backend> dgemm_native(const ArgParser& parser) {
  core::NativeDgemmBackend::Options options;
  options.reuse = arena_enabled(parser);
  options.arena_options.huge_pages = parser.has("huge-pages");
  return std::make_unique<core::NativeDgemmBackend>(options);
}

void add_triad_options(ArgParser& parser) {
  parser.add_option("min-mib",
                    "smallest TRIAD working set in MiB (overrides the default sweep)");
  parser.add_option("max-mib", "largest TRIAD working set in MiB");
}

core::SearchSpace triad_space(const ArgParser& parser) {
  // Optional working-set bounds: a narrowed sweep makes small smoke runs
  // (e.g. the CI arena check) practical on shared hosts.
  if (!parser.get("min-mib").has_value() && !parser.get("max-mib").has_value()) {
    return core::triad_space();
  }
  // A bound past kMaxMiB overflows its 64-bit byte count.
  constexpr std::int64_t kMaxMiB = std::numeric_limits<std::uint64_t>::max() >> 20;
  const auto mib = [&](const char* name, std::int64_t fallback) {
    return util::Bytes::MiB(
        static_cast<std::uint64_t>(int_option(parser, name, fallback, 0, kMaxMiB)));
  };
  const util::Bytes min = mib("min-mib", 8);
  return core::triad_space(min, mib("max-mib", 256));
}

/// Also the STREAM suite's backend (cmd_stream sets sim.stream_kernel).
KernelSpec::BackendFactory triad_sim(const ArgParser& /*parser*/,
                                     const simhw::MachineSpec& machine,
                                     simhw::SimOptions sim) {
  sim.affinity = sim.sockets_used > 1 ? util::AffinityPolicy::Spread
                                      : util::AffinityPolicy::Close;
  return [machine, sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimTriadBackend>(machine, sim);
  };
}

std::unique_ptr<core::Backend> triad_native(const ArgParser& parser) {
  core::NativeTriadBackend::Options options;
  options.reuse = arena_enabled(parser);
  options.arena_options.huge_pages = parser.has("huge-pages");
  return std::make_unique<core::NativeTriadBackend>(options);
}

KernelSpec::BackendFactory spmv_sim(const ArgParser& /*parser*/,
                                    const simhw::MachineSpec& machine,
                                    simhw::SimOptions sim) {
  return [machine, sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimSpmvBackend>(machine, sim);
  };
}

void add_stencil_options(ArgParser& parser) {
  parser.add_option("grid-n",
                    "stencil grid dimension N (N x N doubles per plane; "
                    "default 4096)");
}

KernelSpec::BackendFactory stencil_sim(const ArgParser& parser,
                                       const simhw::MachineSpec& machine,
                                       simhw::SimOptions sim) {
  const auto grid_n = int_option(parser, "grid-n", 4096, 8);
  return [machine, sim, grid_n]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimStencilBackend>(machine, sim, grid_n);
  };
}

void add_pipe_options(ArgParser& parser) {
  parser.add_option("command", "command template with {param} placeholders");
  parser.add_option("param", "search ranges: 'n=64,128,256;m=1,2' ");
  parser.add_option("metric", "metric label for reports (default units/s)");
}

/// --param name=v1,v2,v3 (several specs separated by ';' in one flag).
core::SearchSpace pipe_space(const ArgParser& parser) {
  const auto params = parser.get("param");
  if (!params) {
    throw std::invalid_argument("pipe: --param name=v1,v2,... is required");
  }
  core::SearchSpace space;
  for (const auto& spec : util::split(*params, ';')) {
    const auto eq = spec.find('=');
    if (eq == std::string::npos) {
      throw std::invalid_argument("pipe: bad --param spec '" + spec +
                                  "' (want name=v1,v2,...)");
    }
    const std::string name = util::trim(spec.substr(0, eq));
    std::vector<std::int64_t> values;
    for (const auto& v : util::split(spec.substr(eq + 1), ',')) {
      try {
        values.push_back(std::stoll(util::trim(v)));
      } catch (const std::exception&) {
        throw std::invalid_argument("pipe: bad value '" + v + "' for " + name);
      }
    }
    space.add_range(core::ParameterRange(name, std::move(values)));
  }
  return space;
}

std::unique_ptr<core::Backend> pipe_backend(const ArgParser& parser) {
  const auto command = parser.get("command");
  if (!command) throw std::invalid_argument("pipe: --command is required");
  // Per-thread hardware counters cannot observe the child process the pipe
  // backend spawns, so the counts would silently describe the wrong code.
  // Package-scope energy telemetry (--telemetry) is fine: the child runs
  // synchronously inside the invocation span.
  if (parser.has("perf-counters")) {
    throw std::invalid_argument(
        "pipe: --perf-counters is not supported (per-thread counters cannot "
        "observe the child process); --telemetry energy sampling works");
  }
  core::PipeBackend::Options options;
  options.command_template = *command;
  options.metric_name = parser.get_or("metric", "units/s");
  return std::make_unique<core::PipeBackend>(options);
}

constexpr KernelSpec kKernels[] = {
    {"dgemm", "autotune the DGEMM benchmark", add_dgemm_options, dgemm_space,
     dgemm_sim, dgemm_native},
    {"triad", "autotune the TRIAD benchmark", add_triad_options, triad_space,
     triad_sim, triad_native},
    {"spmv",
     "autotune the sparse matrix-vector benchmark (storage\n"
     "             format x blocking space; simulated machines only,\n"
     "             docs/kernels.md)",
     nullptr, [](const ArgParser&) { return core::spmv_space(); }, spmv_sim, nullptr},
    {"stencil",
     "autotune the 2D 5-point stencil benchmark (tile/unroll\n"
     "             space, --grid-n sets the grid; simulated machines only)",
     add_stencil_options, [](const ArgParser&) { return core::stencil_space(); },
     stencil_sim, nullptr},
    {"pipe",
     "autotune an external benchmark command: --command\n"
     "             './bench --n {n}' --param 'n=64,128,256' [--metric GB/s]",
     add_pipe_options, pipe_space, nullptr, pipe_backend},
};

}  // namespace

std::span<const KernelSpec> kernels() { return kKernels; }

const KernelSpec* find_kernel(std::string_view name) {
  for (const auto& kernel : kKernels) {
    if (name == kernel.name) return &kernel;
  }
  return nullptr;
}

bool arena_enabled(const ArgParser& parser) {
  const std::string mode = util::to_lower(parser.get_or("arena", "on"));
  if (mode == "on") return true;
  if (mode == "off") return false;
  throw std::invalid_argument("--arena wants on|off, got '" + mode + "'");
}

}  // namespace rooftune::cli

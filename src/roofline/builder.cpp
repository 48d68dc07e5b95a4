#include "roofline/builder.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/native_backend.hpp"
#include "core/report.hpp"
#include "core/spaces.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace rooftune::roofline {

namespace {

core::TunerOptions tuning_options(const BuilderOptions& options) {
  core::TunerOptions t = options.tuner;
  t.prune_min_count = options.prune_min_count;
  return t;
}

/// TRIAD space restricted to DRAM-resident working sets.
core::SearchSpace dram_subspace(const core::SearchSpace& full, util::Bytes l3_capacity,
                                double factor) {
  const auto configs = full.enumerate();
  if (configs.empty()) throw std::invalid_argument("dram_subspace: empty TRIAD space");

  std::uint64_t threshold = 0;
  if (l3_capacity.value > 0) {
    threshold = static_cast<std::uint64_t>(static_cast<double>(l3_capacity.value) * factor);
  } else {
    // Unknown cache size (native mode): take the top quarter of the sweep.
    std::uint64_t max_ws = 0;
    for (const auto& c : configs) {
      max_ws = std::max(max_ws, core::triad_working_set(c).value);
    }
    threshold = max_ws / 4;
  }

  std::vector<std::int64_t> lengths;
  for (const auto& c : configs) {
    if (core::triad_working_set(c).value >= threshold) lengths.push_back(c.at("N"));
  }
  if (lengths.empty()) {
    // Degenerate sweep (tiny max working set): fall back to the largest N.
    lengths.push_back(configs.back().at("N"));
  }
  core::SearchSpace space;
  space.add_range(core::ParameterRange("N", std::move(lengths)));
  return space;
}

/// Energy row anchored to the highest measured compute ceiling: the rated
/// TDP of the sockets that ceiling used bounds the draw, so measured-peak /
/// TDP is a floor on the machine's true GFLOP/s/W.
void attach_energy_ceiling(RooflineModel& model, double tdp_per_socket_w,
                           int sockets) {
  if (tdp_per_socket_w <= 0.0 || model.compute().empty()) return;
  const ComputeCeiling* best = &model.compute().front();
  for (const auto& c : model.compute()) {
    if (c.value.value > best->value.value) best = &c;
  }
  const double tdp = tdp_per_socket_w * sockets;
  EnergyCeiling energy;
  energy.name = best->name + " @ TDP";
  energy.tdp_w = tdp;
  energy.gflops_per_watt = best->value.value / tdp;
  if (best->theoretical.value > 0.0) {
    energy.theoretical_gflops_per_watt = best->theoretical.value / tdp;
  }
  model.set_energy(std::move(energy));
}

}  // namespace

ComputeCeiling measure_dgemm_ceiling(core::Backend& backend, const std::string& name,
                                     util::GFlops theoretical,
                                     const BuilderOptions& options) {
  const core::Autotuner tuner(
      options.dgemm_space.value_or(core::dgemm_reduced_space()),
      tuning_options(options));
  const core::TuningRun run = tuner.run(backend);

  ComputeCeiling ceiling;
  ceiling.name = name;
  ceiling.value = util::GFlops{run.best_value()};
  ceiling.theoretical = theoretical;
  ceiling.best_config = run.best_config();
  ceiling.tuning_time = run.total_time;
  util::log_info() << "compute ceiling " << name << ": "
                   << core::summary(run, backend.metric_name());
  return ceiling;
}

std::pair<MemoryCeiling, MemoryCeiling> measure_triad_ceilings(
    core::Backend& backend, const std::string& suffix, util::GBps dram_theoretical,
    util::Bytes l3_capacity, const BuilderOptions& options) {
  const core::SearchSpace full = options.triad_space.value_or(core::triad_space());
  const core::Autotuner full_tuner(full, tuning_options(options));
  const core::TuningRun full_run = full_tuner.run(backend);

  // The global optimum of the sweep is the cache-resident peak: even with
  // the high bandwidth of L3 the kernel stays memory-bound (§III-B), so the
  // best configuration is the largest vector that still fits in cache.
  MemoryCeiling l3;
  l3.name = "L3 " + suffix;
  l3.value = util::GBps{full_run.best_value()};
  l3.best_config = full_run.best_config();
  l3.tuning_time = full_run.total_time;

  // DRAM: re-tune over working sets far beyond the cache so cache hits
  // cannot inflate the estimate (and pruning competes only among
  // DRAM-resident configurations).
  const core::SearchSpace dram_space =
      dram_subspace(full, l3_capacity, options.dram_working_set_factor);
  const core::Autotuner dram_tuner(dram_space, tuning_options(options));
  const core::TuningRun dram_run = dram_tuner.run(backend);

  MemoryCeiling dram;
  dram.name = "DRAM " + suffix;
  dram.value = util::GBps{dram_run.best_value()};
  dram.theoretical = dram_theoretical;
  dram.best_config = dram_run.best_config();
  dram.tuning_time = dram_run.total_time;

  util::log_info() << "memory ceilings " << suffix << ": L3 " << l3.value.value
                   << " GB/s, DRAM " << dram.value.value << " GB/s";
  return {l3, dram};
}

std::vector<MemoryCeiling> measure_cache_hierarchy(core::Backend& backend,
                                                   const simhw::MachineSpec& machine,
                                                   int sockets_used,
                                                   const BuilderOptions& options) {
  struct LevelWindow {
    const char* name;
    std::uint64_t lo;  // inclusive working-set bounds in bytes
    std::uint64_t hi;
  };
  const std::uint64_t l1 = machine.l1_capacity(sockets_used).value;
  const std::uint64_t l2 = machine.l2_capacity(sockets_used).value;
  const std::uint64_t l3 = machine.l3_capacity(sockets_used).value;
  if (l1 == 0 || l2 == 0) {
    throw std::invalid_argument(
        "measure_cache_hierarchy: machine has no per-core cache sizes");
  }
  const auto frac = [](std::uint64_t cap, double f) {
    return static_cast<std::uint64_t>(static_cast<double>(cap) * f);
  };
  const std::vector<LevelWindow> levels = {
      {"L1", 0, frac(l1, 0.6)},
      {"L2", frac(l1, 1.5), frac(l2, 0.6)},
      {"L3", frac(l2, 1.5), frac(l3, 0.6)},
      {"DRAM", frac(l3, static_cast<double>(options.dram_working_set_factor)),
       ~0ull},
  };

  const auto sweep =
      options.triad_space.value_or(core::triad_space()).enumerate();
  std::vector<MemoryCeiling> ceilings;
  for (const auto& level : levels) {
    std::vector<std::int64_t> lengths;
    for (const auto& config : sweep) {
      const std::uint64_t ws = core::triad_working_set(config).value;
      if (ws >= level.lo && ws <= level.hi) lengths.push_back(config.at("N"));
    }
    if (lengths.empty()) {
      util::log_warn() << "cache hierarchy: no sweep point fits the " << level.name
                       << " window; level skipped";
      continue;
    }
    core::SearchSpace space;
    space.add_range(core::ParameterRange("N", std::move(lengths)));
    const core::Autotuner tuner(space, tuning_options(options));
    const core::TuningRun run = tuner.run(backend);

    MemoryCeiling ceiling;
    ceiling.name = std::string(level.name) + " " + std::to_string(sockets_used) +
                   (sockets_used == 1 ? " socket" : " sockets");
    ceiling.value = util::GBps{run.best_value()};
    if (std::string(level.name) == "DRAM") {
      ceiling.theoretical = machine.theoretical_bandwidth(sockets_used);
    }
    ceiling.best_config = run.best_config();
    ceiling.tuning_time = run.total_time;
    ceilings.push_back(std::move(ceiling));
  }
  return ceilings;
}

RooflineModel build_simulated(const simhw::MachineSpec& machine,
                              const BuilderOptions& options) {
  RooflineModel model;
  model.machine_name = machine.name;

  for (int s = 1; s <= machine.sockets; ++s) {
    const std::string suffix =
        std::to_string(s) + (s == 1 ? " socket" : " sockets");

    simhw::SimOptions sim;
    sim.sockets_used = s;
    sim.seed = options.seed;

    // DGEMM keeps threads near their data (§III-A: KMP_AFFINITY=close).
    sim.affinity = util::AffinityPolicy::Close;
    simhw::SimDgemmBackend dgemm(machine, sim);
    model.add_compute(measure_dgemm_ceiling(dgemm, "DGEMM " + suffix,
                                            machine.theoretical_flops(s), options));

    // TRIAD: close for single-socket (only that socket's channels), spread
    // across sockets otherwise (§III-B).
    sim.affinity = s == 1 ? util::AffinityPolicy::Close : util::AffinityPolicy::Spread;
    simhw::SimTriadBackend triad(machine, sim);
    auto [l3, dram] = measure_triad_ceilings(triad, suffix,
                                             machine.theoretical_bandwidth(s),
                                             machine.l3_capacity(s), options);
    model.add_memory(std::move(l3));
    model.add_memory(std::move(dram));
  }
  attach_energy_ceiling(model, machine.tdp_w, machine.sockets);
  return model;
}

RooflineModel build_native(const BuilderOptions& options) {
  RooflineModel model;
  // When the caller supplies a hardware description of the host, the model
  // gains theoretical peaks (Eqs. 9-11) and honest utilization figures;
  // without one we only report measurements.
  util::GFlops ft{0.0};
  util::GBps bt{0.0};
  util::Bytes l3_capacity{0};
  if (options.native_spec.has_value()) {
    const auto& spec = *options.native_spec;
    model.machine_name = spec.name + " (native)";
    ft = spec.theoretical_flops(spec.sockets);
    bt = spec.theoretical_bandwidth(spec.sockets);
    l3_capacity = spec.l3_capacity(spec.sockets);
  } else {
    model.machine_name = "native host";
  }

  core::NativeDgemmBackend dgemm;
  model.add_compute(measure_dgemm_ceiling(dgemm, "DGEMM host", ft, options));

  core::NativeTriadBackend triad;
  auto [l3, dram] = measure_triad_ceilings(triad, "host", bt, l3_capacity, options);
  model.add_memory(std::move(l3));
  model.add_memory(std::move(dram));
  if (options.native_spec.has_value()) {
    attach_energy_ceiling(model, options.native_spec->tdp_w,
                          options.native_spec->sockets);
  }
  return model;
}

}  // namespace rooftune::roofline

#include "simhw/sim_backend.hpp"

#include <chrono>
#include <cmath>
#include <stdexcept>
#include <thread>

#include "blas/blas.hpp"
#include "core/spaces.hpp"

namespace rooftune::simhw {

namespace {

std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xA5A5A5A5DEADBEEFull;
  for (char c : s) h = util::hash_seed(h, static_cast<unsigned char>(c));
  return h;
}

/// Salt for the cost_skew straggler hash — fixed (not SimOptions::seed) so
/// the straggler partition of a space is the same scenario everywhere.
constexpr std::uint64_t kCostSkewSalt = 0xC057'5EEDu;

}  // namespace

double invocation_cost_multiplier(const core::Configuration& config,
                                  const SimOptions& options) {
  if (!(options.cost_skew > 0.0)) return 1.0;
  const std::uint64_t h = util::hash_seed(kCostSkewSalt, config.hash());
  return (h & 7u) == 0u ? options.cost_skew : 1.0;
}

// ---- SimBackendBase --------------------------------------------------------

SimBackendBase::SimBackendBase(MachineSpec machine, SimOptions options)
    : machine_(std::move(machine)),
      options_(options),
      noise_(noise_profile(machine_.name)) {
  if (options_.sockets_used < 1 || options_.sockets_used > machine_.sockets) {
    throw std::invalid_argument("SimBackendBase: invalid socket count");
  }
  sigma_scale_ = options_.sockets_used >= 2 ? noise_.dual_socket_sigma_scale : 1.0;
  if (options_.timer_overhead_s < 0.0) {
    throw std::invalid_argument("SimBackendBase: negative timer overhead");
  }
  if (options_.setup_overhead_s < 0.0) {
    throw std::invalid_argument("SimBackendBase: negative setup overhead");
  }
  if (options_.thermal_tau_s < 0.0) {
    throw std::invalid_argument("SimBackendBase: negative thermal tau");
  }
  if (options_.throttle_factor <= 0.0 || options_.throttle_factor > 1.0) {
    throw std::invalid_argument(
        "SimBackendBase: throttle factor must be in (0, 1]");
  }
  if (options_.pkg_power_w < 0.0 || options_.dram_power_w < 0.0) {
    throw std::invalid_argument("SimBackendBase: negative power draw");
  }
  if (options_.cost_skew < 0.0) {
    throw std::invalid_argument("SimBackendBase: negative cost skew");
  }
  if (options_.cost_base_s < 0.0) {
    throw std::invalid_argument("SimBackendBase: negative cost base");
  }
  clock_.set_overhead(util::Seconds{options_.timer_overhead_s});
}

void SimBackendBase::begin_invocation(const core::Configuration& config,
                                      std::uint64_t invocation_index) {
  inv_setup_s_ = 0.0;
  inv_wall_s_ = 0.0;
  inv_kernel_s_ = 0.0;
  inv_flops_ = 0.0;
  inv_bytes_ = 0.0;
  timing_valid_ = false;
  model_ = model(config);
  iteration_ = 0;
  in_invocation_ = true;

  // The noise stream of (config, invocation) and its invocation bias.
  rng_.reseed(util::hash_seed(options_.seed, name_hash(machine_.name),
                              static_cast<std::uint64_t>(options_.sockets_used),
                              config.hash(), invocation_index));
  invocation_bias_ = rng_.lognormal(0.0, noise_.invocation_sigma * sigma_scale_);

  if (options_.counter_model && model_.flop_rate) {
    // The roofline over the counter model's LLC traffic caps the
    // deliverable rate.  Keeping the clamp and the reported misses on the
    // same traffic is what makes a counter-derived bound a true ceiling on
    // every timing this backend can produce.
    const double oi = model_.flops / (model_.bytes * model_.llc_scale);
    const double cap =
        machine_.theoretical_bandwidth(options_.sockets_used).value * oi;
    if (model_.mean_rate > cap) model_.mean_rate = cap;
  }
  // Launch, operand lease, operand init and one untimed pre-heat kernel
  // call (§III-A).
  charge(options_.launch_overhead_s, true);
  if (lease(model_.setup_bytes)) charge(options_.setup_overhead_s, true);
  charge(model_.init_bytes / (options_.init_bandwidth_gbps * 1e9), true);
  const double preheat_rate = sample_rate(model_.preheat_efficiency, 1);
  charge(model_.work() / (preheat_rate * 1e9), true);
  // Straggler model: occupy the HOST (never the virtual clock) so
  // scheduler ablations see heterogeneous invocation costs while results
  // and journals stay bit-identical to cost_skew = 0.
  if (options_.cost_skew > 0.0 && options_.cost_base_s > 0.0) {
    const double seconds =
        options_.cost_base_s * invocation_cost_multiplier(config, options_);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  }
}

void SimBackendBase::end_invocation() {
  in_invocation_ = false;
  charge(options_.teardown_s, true);
  timing_valid_ = true;
}

void SimBackendBase::replay_invocation(const core::Configuration& config) {
  if (options_.arena_reuse) static_cast<void>(lease(model(config).setup_bytes));
}

void SimBackendBase::charge(double seconds, bool setup) {
  clock_.advance(util::Seconds{seconds});
  inv_wall_s_ += seconds;
  if (setup) inv_setup_s_ += seconds;
}

std::optional<core::TelemetrySpan> SimBackendBase::last_invocation_telemetry()
    const {
  const bool engaged =
      options_.thermal_tau_s > 0.0 || options_.pkg_power_w > 0.0;
  if (!timing_valid_ || !engaged) return std::nullopt;
  core::TelemetrySpan span;
  const double t = inv_wall_s_;
  // First-order thermal model: the package starts each invocation cold (the
  // untimed launch/teardown gap lets it recover) and its clock decays from
  // the nominal frequency toward the sustained throttle floor with time
  // constant tau.  Everything below is a pure function of the accounted
  // invocation duration, so the span is bit-identical across worker
  // assignments for the same schedule.
  const double base_mhz = machine_.cpu_freq_ghz * 1000.0;
  double floor_mhz = base_mhz;
  double progress = 0.0;  // 0 = cold, 1 = fully heat-soaked
  if (options_.thermal_tau_s > 0.0 && t > 0.0) {
    const double tau = options_.thermal_tau_s;
    floor_mhz = options_.throttle_factor * base_mhz;
    progress = 1.0 - std::exp(-t / tau);
    span.freq_begin_mhz = base_mhz;
    span.freq_end_mhz = floor_mhz + (base_mhz - floor_mhz) * (1.0 - progress);
    // Time-average of f(s) = floor + (base-floor) e^{-s/tau} over [0, t].
    span.freq_mean_mhz =
        floor_mhz + (base_mhz - floor_mhz) * (tau / t) * progress;
  } else {
    span.freq_begin_mhz = base_mhz;
    span.freq_end_mhz = base_mhz;
    span.freq_mean_mhz = base_mhz;
  }
  // Package temperature tracks the same exponential: idle ~40 C rising
  // toward ~95 C as the throttle floor is approached.
  span.temp_c = 40.0 + 55.0 * progress;
  span.pkg_joules = options_.pkg_power_w * t;
  span.dram_joules = options_.dram_power_w * t;
  span.valid = true;
  return span;
}

bool SimBackendBase::lease(double bytes) {
  ++arena_stats_.leases;
  arena_stats_.bytes_leased += static_cast<std::uint64_t>(bytes);
  if (options_.arena_reuse && bytes <= high_water_bytes_) {
    ++arena_stats_.slab_hits;
    return false;
  }
  ++arena_stats_.slab_misses;
  ++arena_stats_.allocations;
  if (bytes > high_water_bytes_) high_water_bytes_ = bytes;
  arena_stats_.bytes_reserved = static_cast<std::uint64_t>(high_water_bytes_);
  arena_stats_.pages_touched +=
      static_cast<std::uint64_t>(bytes) / util::WorkspaceArena::page_size() + 1;
  return true;
}

std::optional<core::CounterSample> SimBackendBase::last_invocation_counters()
    const {
  if (!options_.counter_model || !timing_valid_) return std::nullopt;
  core::CounterSample sample;
  // Cycles: accounted kernel seconds at the nominal clock across the cores
  // in use.  LLC misses: the modelled operand traffic in 64-byte lines —
  // analytic bytes times the model's LLC scale — so the measured OI
  // recovers the traffic model's OI exactly.  Instructions: one
  // vector FMA per lane-group of flops plus one load/store micro-op per
  // line — enough structure that IPC separates compute-saturated kernels
  // from stalled ones.  Everything is a pure function of the accumulated
  // per-invocation doubles, so reruns and any worker assignment agree
  // bit for bit.
  const double cores = static_cast<double>(machine_.cores_per_socket) *
                       static_cast<double>(options_.sockets_used);
  sample.cycles = static_cast<std::uint64_t>(
      std::llround(inv_kernel_s_ * machine_.cpu_freq_ghz * 1e9 * cores));
  const double flops_per_instr =
      static_cast<double>(machine_.ops_per_cycle()) /
      static_cast<double>(machine_.fma_units);
  sample.instructions = static_cast<std::uint64_t>(std::llround(
      inv_flops_ / flops_per_instr + inv_bytes_ / 64.0));
  sample.llc_misses = static_cast<std::uint64_t>(
      std::llround(inv_bytes_ * model_.llc_scale / 64.0));
  sample.time_enabled_ns =
      static_cast<std::uint64_t>(std::llround(inv_kernel_s_ * 1e9));
  sample.time_running_ns = sample.time_enabled_ns;
  sample.scaled = false;
  sample.valid = true;
  return sample;
}

std::optional<double> SimBackendBase::analytic_intensity(
    const core::Configuration& config) const {
  InvocationModel m;
  try {
    m = model(config);
  } catch (const std::logic_error&) {
    return std::nullopt;  // a missing parameter or an out-of-range value
  }
  if (!m.flop_rate) return std::nullopt;
  const double scale = options_.counter_model ? m.llc_scale : 1.0;
  return m.flops / (m.bytes * scale);
}

core::Sample SimBackendBase::kernel_sample() {
  if (!in_invocation_) {
    throw std::logic_error("simulated backend: run_iteration outside invocation");
  }
  ++iteration_;
  const double rate = sample_rate(model_.iteration_efficiency, iteration_);
  core::Sample sample;
  sample.value = rate;
  sample.kernel_time = util::Seconds{model_.work() / (rate * 1e9)};
  charge(sample.kernel_time.value, false);
  // Counter model: the timed kernel phase accumulates true kernel seconds
  // and the analytic work/traffic of each iteration (timer-pair overhead
  // retires no kernel instructions, so it stays out).
  inv_kernel_s_ += sample.kernel_time.value;
  inv_flops_ += model_.flops;
  inv_bytes_ += model_.bytes;
  return sample;
}

core::Sample SimBackendBase::run_iteration() {
  core::Sample sample = kernel_sample();
  const double o = options_.timer_overhead_s;
  if (o > 0.0) {
    // One timer pair wraps this single iteration: the measured span is the
    // true kernel time plus the pair cost, and the reported rate is the
    // work over that inflated span.
    const double t = sample.kernel_time.value;
    sample.value *= t / (t + o);
    sample.kernel_time = util::Seconds{t + o};
    charge(o, false);
  }
  return sample;
}

core::BatchSample SimBackendBase::run_batch(std::uint64_t count) {
  core::BatchSample batch;
  double work = 0.0;
  for (std::uint64_t i = 0; i < count; ++i) {
    const core::Sample s = kernel_sample();
    work += s.value * s.kernel_time.value;
    batch.kernel_time += s.kernel_time;
    ++batch.count;
  }
  if (batch.count == 0) return batch;
  const double o = options_.timer_overhead_s;
  // A single timer pair around the whole group: the pair cost is paid (and
  // measured) once, amortized over `count` iterations.
  batch.kernel_time += util::Seconds{o};
  batch.value = batch.kernel_time.value > 0.0
                    ? work / batch.kernel_time.value
                    : 0.0;
  if (o > 0.0) charge(o, false);
  return batch;
}

double SimBackendBase::sample_rate(double efficiency, std::uint64_t iteration) {
  double rate = model_.mean_rate * invocation_bias_ *
                ramp_factor(noise_, efficiency, iteration) *
                rng_.lognormal(0.0, noise_.iter_sigma * sigma_scale_);
  if (rng_.uniform() < noise_.outlier_prob) rate *= noise_.outlier_factor;
  return rate;
}

// ---- SimDgemmBackend -------------------------------------------------------

SimDgemmBackend::SimDgemmBackend(MachineSpec machine, SimOptions options)
    : SimBackendBase(std::move(machine), options),
      surface_(machine_, options_.sockets_used) {}

InvocationModel SimDgemmBackend::model(const core::Configuration& config) const {
  const std::int64_t n = config.at("n");
  const std::int64_t m = config.at("m");
  const std::int64_t k = config.at("k");
  InvocationModel model;
  model.preheat_efficiency = surface_.efficiency(n, m, k);
  model.iteration_efficiency = model.preheat_efficiency;
  model.mean_rate = surface_.mean_gflops(n, m, k).value;
  model.flops = blas::dgemm_flops(m, n, k).value;
  // The operands A: n*k, B: k*m, C: n*m doubles, leased and initialized.
  model.bytes = 8.0 * (static_cast<double>(n) * k + static_cast<double>(k) * m +
                       static_cast<double>(n) * m);
  model.setup_bytes = model.bytes;
  model.init_bytes = model.bytes;
  // Operands past L3 cannot be held across the k-panel sweep: LLC traffic
  // grows over the compulsory bytes by (working_set / L3)^exponent.
  const double l3 =
      static_cast<double>(machine_.l3_capacity(options_.sockets_used).value);
  if (l3 > 0.0 && model.bytes > l3) {
    model.llc_scale = std::pow(model.bytes / l3, options_.counter_spill_exponent);
  }
  return model;
}

// ---- SimTriadBackend -------------------------------------------------------

SimTriadBackend::SimTriadBackend(MachineSpec machine, SimOptions options)
    : SimBackendBase(std::move(machine), options),
      surface_(machine_, options_.sockets_used, options_.affinity,
               options_.model_inner_caches) {}

InvocationModel SimTriadBackend::model(const core::Configuration& config) const {
  const std::int64_t n = config.at("N");
  // All three vectors are resident regardless of kernel (24 bytes/element);
  // the *traffic* per pass depends on how many streams the kernel touches.
  const util::Bytes ws = core::triad_working_set(config);
  InvocationModel model;
  model.mean_rate = surface_.mean_bandwidth(options_.stream_kernel, ws).value;
  // Optional "nt" dimension (store-policy tuning): non-temporal stores skip
  // write-allocate, so a DRAM-resident working set moves (bytes+8)/bytes
  // fewer hardware bytes per element — reported STREAM-convention bandwidth
  // rises by that ratio.  Cache-resident sizes lose badly: NT stores force
  // every write through DRAM.
  if (config.has("nt") && config.at("nt") != 0) {
    const double reported =
        static_cast<double>(stream::bytes_per_element(options_.stream_kernel).value);
    const double l3 =
        static_cast<double>(machine_.l3_capacity(options_.sockets_used).value);
    if (static_cast<double>(ws.value) > 2.0 * l3) {
      model.mean_rate *= (reported + 8.0) / reported;
    } else {
      model.mean_rate *= 0.5;
    }
  }
  // TRIAD warm-up is negligible compared to DGEMM (no frequency licensing):
  // the pre-heat pass runs at full efficiency, and the timed passes apply
  // the ramp with efficiency 0 (a mild first-pass effect appears only when
  // the profile covers all configurations, threshold 0).
  model.preheat_efficiency = 1.0;
  model.iteration_efficiency = 0.0;
  model.bytes = static_cast<double>(
      stream::bytes_per_element(options_.stream_kernel).value *
      static_cast<std::uint64_t>(n));
  model.flops = static_cast<double>(
      stream::flops_per_element(options_.stream_kernel).value *
      static_cast<std::uint64_t>(n));
  // All three vectors are allocated even though the kernel may read fewer.
  model.setup_bytes = 3.0 * 8.0 * static_cast<double>(n);
  model.init_bytes = model.bytes;
  model.flop_rate = false;
  return model;
}

// ---- SimSpmvBackend --------------------------------------------------------

SimSpmvBackend::SimSpmvBackend(MachineSpec machine, SimOptions options)
    : SimBackendBase(std::move(machine), options),
      surface_(machine_, options_.sockets_used) {}

InvocationModel SimSpmvBackend::model(const core::Configuration& config) const {
  const std::int64_t rows = config.at("rows");
  const SpmvFormat format = spmv_format_from(config.at("format"));
  const int block = static_cast<int>(config.at("block"));
  const SpmvMatrixStats stats = spmv_matrix_stats(rows);
  const SpmvTraffic traffic = spmv_traffic(stats, format, block);
  InvocationModel model;
  model.bytes = traffic.total();
  model.flops = 2.0 * static_cast<double>(stats.nnz);
  model.mean_rate = surface_.mean_gflops(stats, format, block);
  // Bandwidth-bound kernel: no frequency-licensing warm-up (efficiency 0).
  // Allocated operands: stored values + index structures + the x/y vectors
  // (16 bytes/row; the traffic term's extra 8 is y's read, not storage).
  model.setup_bytes =
      traffic.value_bytes + traffic.index_bytes + 16.0 * static_cast<double>(rows);
  model.init_bytes = model.bytes;
  // The LLC-miss traffic is the DRAM-side fraction of the format bytes:
  // resident matrices leak only a trickle past L3, spilled ones re-fetch
  // gathered x lines.  Without the fraction, L3-resident configs (which
  // legitimately exceed DRAM bandwidth) would be clamped to it.
  model.llc_scale = surface_.dram_fraction(model.bytes);
  return model;
}

// ---- SimStencilBackend -----------------------------------------------------

SimStencilBackend::SimStencilBackend(MachineSpec machine, SimOptions options,
                                     std::int64_t grid_n)
    : SimBackendBase(std::move(machine), options),
      surface_(machine_, options_.sockets_used, grid_n) {}

InvocationModel SimStencilBackend::model(const core::Configuration& config) const {
  const std::int64_t ti = config.at("ti");
  const std::int64_t tj = config.at("tj");
  const std::int64_t unroll = config.at("unroll");
  InvocationModel model;
  model.mean_rate = surface_.mean_gflops(ti, tj, unroll);
  model.bytes = surface_.sweep_bytes(ti, tj);
  model.flops = surface_.sweep_flops();
  // Bandwidth-bound sweep: no warm-up ramp (efficiency 0).  Both grids are
  // leased and initialized; misses are the DRAM-side fraction of the
  // tiling traffic, set by the resident grids (not the per-tile streams).
  model.setup_bytes = surface_.grid_bytes();
  model.init_bytes = surface_.grid_bytes();
  model.llc_scale = surface_.dram_fraction();
  return model;
}

}  // namespace rooftune::simhw

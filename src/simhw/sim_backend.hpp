#pragma once
// Simulated execution backends: core::Backend implementations that replay
// the calibrated response surfaces + noise model against a virtual clock.
//
// Costs charged to the clock per invocation (mirroring the real tool's
// §III-A structure): process launch, operand initialization (bytes at a
// fixed init bandwidth), one untimed pre-heat kernel call, then one kernel
// time per iteration, then teardown.  "Time" columns of the reproduced
// tables are spans of this clock.

#include <cstdint>
#include <optional>

#include "core/backend.hpp"
#include "simhw/dgemm_model.hpp"
#include "simhw/machine.hpp"
#include "simhw/noise.hpp"
#include "simhw/spmv_model.hpp"
#include "simhw/stencil_model.hpp"
#include "simhw/triad_model.hpp"
#include "util/affinity.hpp"
#include "util/clock.hpp"
#include "util/rng.hpp"

namespace rooftune::simhw {

struct SimOptions {
  int sockets_used = 1;
  util::AffinityPolicy affinity = util::AffinityPolicy::Close;
  bool model_inner_caches = false;    ///< §VII extension: L1/L2 TRIAD regimes
  /// Which STREAM kernel the memory backend simulates (the paper uses
  /// TRIAD; copy/scale/add are available for full-suite studies).
  stream::Kernel stream_kernel = stream::Kernel::Triad;
  std::uint64_t seed = 2021;          ///< master seed for all noise streams
  /// Enlarged-grid preset: octave subdivision factor the drivers pass to
  /// core::dgemm_scaled_space() when building the search space (1 = the
  /// paper's 96-config reduced grid, 6 ≈ 11k configs).  The response
  /// surface is analytic in (n, m, k), so intermediate dimensions evaluate
  /// without any model change; the backend itself only records the value
  /// for provenance.
  int grid_scale = 1;
  double launch_overhead_s = 0.040;   ///< process spawn + BLAS thread pool
  double init_bandwidth_gbps = 8.0;   ///< operand initialization speed
  double teardown_s = 0.005;
  /// Modelled cost of one timer pair around a timed region (clock_gettime
  /// pair).  Charged once per run_iteration / run_batch call, and — the
  /// part that matters for short kernels — included in the *measured* time,
  /// so reported rates bias low until the evaluator's adaptive batching
  /// amortizes the pair over many iterations.  0 disables the model (and
  /// the batching, keeping legacy runs bit-identical).
  double timer_overhead_s = 0.0;
  /// Modelled cost of materializing a fresh operand working set (mmap +
  /// page-fault storm) — the cost util::WorkspaceArena removes on the real
  /// backends.  Charged per invocation when arena_reuse is off; with
  /// arena_reuse on it is paid only when the working set exceeds the
  /// largest seen so far (a modelled slab miss).  0 disables the model,
  /// keeping legacy runs bit-identical.
  double setup_overhead_s = 0.0;
  /// Simulate workspace-arena slab reuse (see setup_overhead_s).  Also
  /// surfaces modelled ArenaStats through Backend::arena_stats() so the
  /// report pipeline can be exercised without real hardware.
  bool arena_reuse = false;
  /// Thermal time constant of the modelled package in seconds.  When
  /// positive, the effective frequency reported through
  /// last_invocation_telemetry() decays from the nominal clock toward
  /// throttle_factor x nominal with this time constant over each
  /// invocation's modelled busy time — the DVFS/thermal-throttling drift
  /// the telemetry subsystem exists to detect.  The thermal state resets at
  /// every invocation boundary (the machine cools during the untimed
  /// launch/teardown gap), which keeps the telemetry a pure function of the
  /// invocation and therefore bit-identical across worker assignments.
  /// 0 (default) disables the drift model; kernel rates are never affected
  /// either way, so all legacy schedules stay bit-identical.
  double thermal_tau_s = 0.0;
  /// Sustained-state frequency as a fraction of nominal once the package is
  /// heat-soaked (e.g. 0.85 = 15 % throttle).  Only meaningful with
  /// thermal_tau_s > 0.
  double throttle_factor = 1.0;
  /// Modelled package power draw in watts while the invocation runs.
  /// Positive values produce synthetic RAPL energy in the telemetry span
  /// (pkg_joules = power x modelled invocation seconds), making
  /// Joules/GFLOP and GFLOP/s/W figures unit-testable without powercap.
  double pkg_power_w = 0.0;
  /// Modelled DRAM power draw in watts (the RAPL dram domain); 0 = absent.
  double dram_power_w = 0.0;
  /// Synthetic hardware-counter model: when on, the backend reports
  /// cycles/instructions/LLC-misses per invocation through
  /// Backend::last_invocation_counters(), derived from the same response
  /// surfaces that generate timings (cycles from modelled kernel seconds at
  /// the nominal clock, misses from the analytic byte traffic, instructions
  /// from the vector-op mix) — a pure function of the invocation's
  /// accounted work, hence deterministic and bit-identical across worker
  /// assignments.  This is what makes the counter-prune policy
  /// (core/bottleneck.hpp) testable without a PMU.  Off by default so every
  /// legacy run stays bit-identical.
  bool counter_model = false;
  /// Memory-hierarchy term of the counter model (DGEMM only): operands that
  /// overflow L3 cannot be held across the k-panel sweep, so LLC traffic
  /// grows over the compulsory operand bytes by (working_set / L3)^exponent
  /// once the working set spills — the panel-re-streaming regime of an
  /// unblocked GEMM.  The timing surface is clamped by the roofline this
  /// traffic implies (value ≤ DRAM_bw × modelled OI), keeping the counter
  /// signatures and the timings they must explain consistent — the property
  /// the counter-prune policy's soundness rests on.  Only read when
  /// counter_model is on; legacy surfaces are untouched.
  double counter_spill_exponent = 2.0;
  /// Heterogeneous per-config invocation cost for scheduler ablations:
  /// when > 0, each begin_invocation OCCUPIES THE HOST for a real
  /// (wall-clock) interval — cost_base_s for most configurations and
  /// cost_base_s x cost_skew for a hash-selected eighth of them (the
  /// "stragglers").  The occupancy is a std::this_thread::sleep_for; the
  /// virtual clock, samples, telemetry, and counters are untouched, so
  /// results and trace journals stay bit-identical to cost_skew = 0 and
  /// across scheduler modes — only host wall-clock differs, which is
  /// exactly the variable the wave-vs-pipeline ablation measures.
  /// Straggler membership is a pure function of the configuration hash
  /// (seed-independent), so scenarios reproduce across machines.
  /// 0 (default) disables the model, keeping legacy runs bit-identical.
  double cost_skew = 0.0;
  /// Real seconds a non-straggler invocation occupies the host under
  /// cost_skew (stragglers take cost_skew times this).
  double cost_base_s = 0.001;
};

/// The deterministic straggler predicate behind SimOptions::cost_skew:
/// multiplier applied to cost_base_s for `config` (cost_skew for the
/// hash-selected eighth, 1 otherwise; 1 when the model is off).  Exposed
/// so tests and the pipeline ablation can partition a space without
/// running it.
double invocation_cost_multiplier(const core::Configuration& config,
                                  const SimOptions& options);

/// What one configuration delivers and costs on the simulated machine: the
/// pure, noise-free part of an invocation, and the only thing a simulated
/// kernel defines.  SimBackendBase drives the whole invocation from it.
struct InvocationModel {
  double mean_rate = 0.0;  ///< surface rate in the backend's metric
  /// Warm-up ramp inputs (noise.hpp ramp_factor) of the untimed pre-heat
  /// call and of the timed iterations.
  double preheat_efficiency = 0.0;
  double iteration_efficiency = 0.0;
  double flops = 0.0;        ///< analytic FLOP per kernel call
  double bytes = 0.0;        ///< analytic bytes moved per kernel call
  double setup_bytes = 0.0;  ///< working set leased at setup (arena model)
  double init_bytes = 0.0;   ///< bytes operand initialization writes
  /// LLC traffic over `bytes` under the counter model (the L3-spill or
  /// DRAM-fraction multiplier; 1 for a plain stream).
  double llc_scale = 1.0;
  /// True for a GFLOP/s metric: each sample divides `flops` by its rate,
  /// the counter model clamps the rate to the roofline over the LLC
  /// traffic, and analytic_intensity predicts flops / traffic.  False for a
  /// GB/s metric (TRIAD): samples divide `bytes`, nothing clamps and no
  /// intensity is predicted.
  bool flop_rate = true;

  /// The work each sample divides by its rate: flops or bytes.
  [[nodiscard]] double work() const { return flop_rate ? flops : bytes; }
};

/// The invocation lifecycle every simulated kernel shares.  begin_invocation
/// charges launch, the operand lease, operand init and one untimed pre-heat
/// call; each iteration draws one noisy rate around the model's mean; the
/// teardown closes the invocation.  A subclass supplies its metric name and
/// model(); everything else lives here.
class SimBackendBase : public core::Backend {
 public:
  SimBackendBase(MachineSpec machine, SimOptions options);

  /// Every charge sums into per-invocation accumulators from zero, which is
  /// what makes last_invocation_timing() independent of the clock's
  /// accumulated base and therefore bit-identical across worker assignments.
  void begin_invocation(const core::Configuration& config,
                        std::uint64_t invocation_index) final;
  void end_invocation() final;
  /// Account the operand lease of a replayed (checkpointed) invocation in
  /// the arena model without charging the clock, so a resumed run's slab
  /// high-water mark and counters match an uninterrupted run's.
  void replay_invocation(const core::Configuration& config) final;
  [[nodiscard]] std::optional<InvocationTiming> last_invocation_timing()
      const final {
    if (!timing_valid_) return std::nullopt;
    return InvocationTiming{util::Seconds{inv_setup_s_},
                            util::Seconds{inv_wall_s_}};
  }

  [[nodiscard]] const util::Clock& clock() const final { return clock_; }
  /// One modelled timer pair around the iteration: measured time is the
  /// true kernel time plus SimOptions::timer_overhead_s, the reported rate
  /// shrinks by the same ratio, and the overhead is charged to the clock.
  core::Sample run_iteration() final;
  /// One timer pair around the whole group: the overhead is paid once, so
  /// the group-mean rate recovers the bias run_iteration suffers — the
  /// deterministic counterpart of what adaptive batching buys on hardware.
  core::BatchSample run_batch(std::uint64_t count) final;
  /// Simulated backends touch no process-global state: safe one-per-worker.
  [[nodiscard]] bool reentrant() const final { return true; }
  /// Modelled arena counters; absent unless SimOptions::arena_reuse.
  [[nodiscard]] std::optional<util::ArenaStats> arena_stats() const final {
    if (!options_.arena_reuse) return std::nullopt;
    return arena_stats_;
  }
  /// Synthetic frequency/thermal/energy telemetry over the last invocation,
  /// from the deterministic drift model (SimOptions::thermal_tau_s,
  /// throttle_factor, pkg_power_w).  Absent unless the model is engaged —
  /// default options keep every existing run untouched.
  [[nodiscard]] std::optional<core::TelemetrySpan> last_invocation_telemetry()
      const final;
  /// Synthetic counter deltas over the last invocation's timed kernel
  /// phase (SimOptions::counter_model); absent unless the model is engaged.
  [[nodiscard]] std::optional<core::CounterSample> last_invocation_counters()
      const final;
  /// Predicted OI under the same traffic model the counter signatures use:
  /// flops over bytes times the LLC scale when the counter model is on, so
  /// measured and predicted OI agree exactly.  None for a GB/s metric and
  /// for a configuration outside the model.
  [[nodiscard]] std::optional<double> analytic_intensity(
      const core::Configuration& config) const final;
  /// The current (or last) invocation's model work; none before the first.
  [[nodiscard]] std::optional<double> flops_per_iteration() const final {
    return model_.flops > 0.0 ? std::optional<double>(model_.flops) : std::nullopt;
  }
  [[nodiscard]] std::optional<double> bytes_per_iteration() const final {
    return model_.bytes > 0.0 ? std::optional<double>(model_.bytes) : std::nullopt;
  }
  [[nodiscard]] const MachineSpec& machine() const { return machine_; }
  [[nodiscard]] const SimOptions& sim_options() const { return options_; }
  [[nodiscard]] const NoiseProfile& noise() const { return noise_; }

  /// Total simulated time elapsed so far.
  [[nodiscard]] util::Seconds now() const { return clock_.now(); }

 protected:
  /// The noise-free model of `config`.  Throws std::logic_error (missing
  /// parameter, out-of-range value) for a configuration outside the model.
  [[nodiscard]] virtual InvocationModel model(
      const core::Configuration& config) const = 0;

  MachineSpec machine_;
  SimOptions options_;

 private:
  /// One noisy rate around the model's mean for 1-based iteration
  /// `iteration` with warm-up efficiency `efficiency`.
  [[nodiscard]] double sample_rate(double efficiency, std::uint64_t iteration);
  /// The kernel proper: one noisy sample whose true time is charged to the
  /// clock and accumulated for the counter model, with no timer-pair cost.
  [[nodiscard]] core::Sample kernel_sample();
  /// Advance the clock by `seconds` of this invocation; `setup` charges
  /// (everything outside the timed iterations) also count toward
  /// InvocationTiming::setup.
  void charge(double seconds, bool setup);
  /// Account one modelled working-set lease of `bytes`; true on a slab miss
  /// (arena reuse off, or bytes past the high-water mark).
  bool lease(double bytes);

  NoiseProfile noise_;
  util::VirtualClock clock_;
  util::Xoshiro256 rng_;
  double invocation_bias_ = 1.0;
  double sigma_scale_ = 1.0;
  double high_water_bytes_ = 0.0;  ///< modelled arena capacity
  util::ArenaStats arena_stats_;   ///< modelled counters (see lease)
  InvocationModel model_;          ///< current invocation (rate clamped)
  std::uint64_t iteration_ = 0;
  bool in_invocation_ = false;
  // Per-invocation timing, accumulated from zero each begin_invocation so
  // the sums never depend on the clock's base (see last_invocation_timing).
  double inv_setup_s_ = 0.0;
  double inv_wall_s_ = 0.0;
  bool timing_valid_ = false;
  // Counter-model accumulators over the timed kernel phase only (the
  // pre-heat call and launch/teardown are outside the perf bracket, same
  // as the real sampler's kernel_phase_begin/end window).
  double inv_kernel_s_ = 0.0;
  double inv_flops_ = 0.0;
  double inv_bytes_ = 0.0;
};

/// Simulated DGEMM benchmark program (metric: GFLOP/s).  2nmk FLOP per call
/// over the three operand matrices, 8(nk + km + nm) bytes; under the counter
/// model operands past L3 re-stream across the panel sweep, multiplying LLC
/// traffic by (working_set / L3)^counter_spill_exponent.
class SimDgemmBackend final : public SimBackendBase {
 public:
  SimDgemmBackend(MachineSpec machine, SimOptions options);

  [[nodiscard]] std::string metric_name() const override { return "GFLOP/s"; }
  [[nodiscard]] const DgemmSurface& surface() const { return surface_; }
 private:
  [[nodiscard]] InvocationModel model(
      const core::Configuration& config) const override;

  DgemmSurface surface_;
};

/// Simulated TRIAD benchmark program (metric: GB/s).  Runs any STREAM
/// kernel (SimOptions::stream_kernel): bytes_per_element x N per pass, with
/// an optional "nt" (non-temporal store) dimension.
class SimTriadBackend final : public SimBackendBase {
 public:
  SimTriadBackend(MachineSpec machine, SimOptions options);

  [[nodiscard]] std::string metric_name() const override { return "GB/s"; }
  [[nodiscard]] const TriadSurface& surface() const { return surface_; }
 private:
  [[nodiscard]] InvocationModel model(
      const core::Configuration& config) const override;

  TriadSurface surface_;
};

/// Simulated SpMV benchmark program (metric: GFLOP/s — padding and fill do
/// no useful work, so the rate counts 2*nnz regardless of format).
/// Parameters: "rows" (matrix dimension), "format" (0 = CSR, 1 = sliced
/// ELL, 2 = BCSR), "block" (format-specific block factor; see
/// simhw/spmv_model.hpp).  Traffic per pass is the format's values +
/// indices + x/y streams; the counter model's LLC traffic is its DRAM
/// fraction.
class SimSpmvBackend final : public SimBackendBase {
 public:
  SimSpmvBackend(MachineSpec machine, SimOptions options);

  [[nodiscard]] std::string metric_name() const override { return "GFLOP/s"; }
  [[nodiscard]] const SpmvSurface& surface() const { return surface_; }
 private:
  [[nodiscard]] InvocationModel model(
      const core::Configuration& config) const override;

  SpmvSurface surface_;
};

/// Simulated 2D 5-point stencil benchmark program (metric: GFLOP/s).
/// Parameters: "ti"/"tj" (tile height/width), "unroll" (inner unroll).
/// The grid edge N is a benchmark-definition knob (CLI --grid-n), not a
/// tuning parameter.  6*N^2 FLOP per sweep over the tiling-dependent
/// traffic (see simhw/stencil_model.hpp).
class SimStencilBackend final : public SimBackendBase {
 public:
  SimStencilBackend(MachineSpec machine, SimOptions options,
                    std::int64_t grid_n = 4096);

  [[nodiscard]] std::string metric_name() const override { return "GFLOP/s"; }
  [[nodiscard]] const StencilSurface& surface() const { return surface_; }
 private:
  [[nodiscard]] InvocationModel model(
      const core::Configuration& config) const override;

  StencilSurface surface_;
};

}  // namespace rooftune::simhw

#pragma once
// Execution backend: the boundary between the autotuner (which only sees
// samples, time, and a clock) and whatever actually runs the kernel — real
// hardware via blas/stream, or the simulated machines in simhw.
//
// The benchmarking process (paper Fig. 2) is:
//   for each invocation:            (outer invocation loop)
//     begin_invocation()            — process launch, buffers, init, preheat
//     repeat: run_iteration()       (inner iteration loop)
//     end_invocation()
//
// A backend charges ALL costs (launch, init, preheat, kernel) to its clock;
// the "Time" columns of Tables VIII–XI are differences of that clock.

#include <cstdint>
#include <optional>
#include <string>

#include "core/bottleneck.hpp"
#include "core/config.hpp"
#include "core/telemetry_span.hpp"
#include "util/clock.hpp"
#include "util/units.hpp"
#include "util/workspace_arena.hpp"

namespace rooftune::core {

/// One inner-loop measurement: a higher-is-better metric sample (GFLOP/s or
/// GB/s) and the kernel time it consumed (feeds the max-time stop condition).
struct Sample {
  double value = 0.0;
  util::Seconds kernel_time{0.0};
};

/// Aggregate of `count` consecutive kernel iterations timed as one unit
/// (one timer pair around the whole group).  `value` is the group-mean
/// metric; `kernel_time` the group's total measured kernel time.
struct BatchSample {
  double value = 0.0;
  util::Seconds kernel_time{0.0};
  std::uint64_t count = 0;
};

class Backend {
 public:
  virtual ~Backend() = default;

  /// Prepare one benchmark program invocation for `config`.
  /// `invocation_index` distinguishes repeated invocations so backends can
  /// reproduce invocation-level variance (Georges et al.).
  virtual void begin_invocation(const Configuration& config,
                                std::uint64_t invocation_index) = 0;

  /// Execute one kernel iteration; must be called between begin/end.
  virtual Sample run_iteration() = 0;

  /// Execute `count` kernel iterations as one timed unit.  Backends that
  /// pay real timer overhead override this to wrap the whole group in a
  /// single timer pair (amortizing the per-call cost the evaluator's
  /// adaptive batching exists to remove); the default composes
  /// run_iteration() and reports the work-weighted mean rate, which is
  /// what a single timer pair around the group would have measured.
  virtual BatchSample run_batch(std::uint64_t count) {
    BatchSample batch;
    double work = 0.0;   // value * time, i.e. metric-units delivered
    double values = 0.0; // fallback for zero-cost scripted backends
    for (std::uint64_t i = 0; i < count; ++i) {
      const Sample s = run_iteration();
      work += s.value * s.kernel_time.value;
      values += s.value;
      batch.kernel_time += s.kernel_time;
      ++batch.count;
    }
    if (batch.count == 0) return batch;
    batch.value = batch.kernel_time.value > 0.0
                      ? work / batch.kernel_time.value
                      : values / static_cast<double>(batch.count);
    return batch;
  }

  /// Tear down the invocation (free buffers / account teardown time).
  virtual void end_invocation() = 0;

  /// A checkpointed run replays a logged invocation of `config` instead of
  /// running it.  Backends whose state depends on the invocations run so far
  /// (the simulated arena's slab high-water mark) account it here, without
  /// charging the clock; the default does nothing.
  virtual void replay_invocation(const Configuration& config) { (void)config; }

  /// The time source all durations are measured against.
  [[nodiscard]] virtual const util::Clock& clock() const = 0;

  /// True when *multiple instances* of this backend may evaluate different
  /// configurations concurrently in one process (each ParallelEvaluator
  /// worker owns its own instance).  Defaults to false: backends that own
  /// process-global state — the native backends pin affinity and share the
  /// OpenMP runtime — must stay serial.  The simulated backends (pure
  /// virtual clock + per-instance RNG) and the pipe backend (one child
  /// process per instance, i.e. a bounded process pool) declare true.
  [[nodiscard]] virtual bool reentrant() const { return false; }

  /// Workspace-arena counters for backends that lease operand buffers from
  /// a util::WorkspaceArena (the native backends; the simulated backends
  /// report modelled counters when SimOptions::arena_reuse is on).  The
  /// tuner copies this into TuningRun so reports can show slab hit rates —
  /// the instrumented proof that the steady-state loop allocates nothing.
  [[nodiscard]] virtual std::optional<util::ArenaStats> arena_stats() const {
    return std::nullopt;
  }

  /// Durations of the most recently completed invocation as accounted by
  /// the backend itself.
  struct InvocationTiming {
    util::Seconds setup{0.0};  ///< begin_invocation + end_invocation costs
    util::Seconds wall{0.0};   ///< everything between those boundaries
  };

  /// Exact invocation timing, when the backend can provide it independently
  /// of its clock's accumulated base.  The simulated backends sum their
  /// modelled charges from zero each invocation, so the result is
  /// bit-identical for any worker assignment — which is what makes trace
  /// journals reproducible (docs/observability.md).  The default nullopt
  /// tells callers to fall back to clock spans (exact enough for real
  /// hardware, where nothing is bit-reproducible anyway).
  [[nodiscard]] virtual std::optional<InvocationTiming> last_invocation_timing()
      const {
    return std::nullopt;
  }

  /// Machine telemetry over the most recently completed invocation, when
  /// the backend can account it.  The simulated backends compute it from
  /// their deterministic thermal/energy model (a pure function of the
  /// invocation's modelled durations, hence bit-identical across worker
  /// assignments); real backends leave the default nullopt and rely on the
  /// journal's span probe / the background sampler instead.
  [[nodiscard]] virtual std::optional<TelemetrySpan> last_invocation_telemetry()
      const {
    return std::nullopt;
  }

  /// Hardware-counter deltas over the most recently completed invocation,
  /// when the backend can account them.  The simulated backends derive
  /// cycles/instructions/LLC-misses from the same response surfaces that
  /// generate timings (SimOptions::counter_model) — a pure function of the
  /// invocation's modelled work, hence bit-identical across worker
  /// assignments.  Real backends leave the default nullopt; their counters
  /// flow through the trace sink's sampler instead
  /// (TraceSink::kernel_phase_counters).
  [[nodiscard]] virtual std::optional<CounterSample> last_invocation_counters()
      const {
    return std::nullopt;
  }

  /// Predicted operational intensity (flops/byte) of `config`, computable
  /// *without running it* — the analytic work/traffic model the backend's
  /// intensity columns are built from.  This is what lets the counter-prune
  /// policy skip a configuration before its first invocation: the roofline
  /// bound DRAM_bw × OI needs only the OI prediction, and the prediction is
  /// only trusted once measured OIs from earlier invocations have validated
  /// it (RacingScheduler::apply_counter_skips).  Must be an upper bound on
  /// the real OI (compulsory traffic is the least traffic possible), so the
  /// derived ceiling stays sound.  Default: no prediction, never skipped.
  [[nodiscard]] virtual std::optional<double> analytic_intensity(
      const Configuration& config) const {
    (void)config;
    return std::nullopt;
  }

  /// Analytic work one kernel iteration performs, in FLOP — e.g. 2nmk for
  /// DGEMM, 2N for TRIAD.  Feeds the trace journal's operational-intensity
  /// columns (measured counter bytes vs. this analytic numerator).  nullopt
  /// when the backend cannot know (scripted/pipe backends).
  [[nodiscard]] virtual std::optional<double> flops_per_iteration() const {
    return std::nullopt;
  }

  /// Analytic memory traffic one kernel iteration moves, in bytes — e.g.
  /// 8(nk + km + nm) for DGEMM, 24N for TRIAD.  Denominator of the analytic
  /// operational intensity printed next to the counter-derived one.
  [[nodiscard]] virtual std::optional<double> bytes_per_iteration() const {
    return std::nullopt;
  }

  /// "GFLOP/s" or "GB/s" — used in reports.
  [[nodiscard]] virtual std::string metric_name() const = 0;
};

}  // namespace rooftune::core

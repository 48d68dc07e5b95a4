#pragma once
// The two-level evaluation loop of the paper (Fig. 2): an inner iteration
// loop inside each program invocation, and an outer invocation loop per
// configuration.  Both levels share the stop-condition machinery.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/backend.hpp"
#include "core/bottleneck.hpp"
#include "core/config.hpp"
#include "core/search_space.hpp"
#include "core/stop_condition.hpp"
#include "core/trace_events.hpp"
#include "stats/welford.hpp"
#include "util/units.hpp"

namespace rooftune::core {

class InvocationLog;

/// How the tuner schedules configuration evaluation.
///
///   Exhaustive — the paper's schedule: each configuration runs to
///                completion (all invocations) before the next starts.
///   Racing     — interleaved CI-elimination (core/racing.hpp): every round
///                grants each surviving configuration one invocation, then
///                eliminates survivors whose CI upper bound falls below the
///                leader's CI lower bound.  Losers die after a handful of
///                invocations instead of after a full sequential evaluation.
///   Surrogate  — model-guided seed → fit → prune → confirm
///                (core/surrogate.hpp): a Latin-hypercube seed batch is
///                measured, a ridge-regression surrogate predicts the rest
///                of the (lazily enumerated) space, and only the top
///                predicted candidates race for the optimum.  Search cost is
///                O(seed + confirm) instead of O(|space|).
enum class SearchStrategy { Exhaustive, Racing, Surrogate };

const char* to_string(SearchStrategy strategy);

/// All knobs of the benchmarking process.  Defaults are the paper's Table I
/// auto-tuner configuration: 10 invocations, 200 iterations, 10 s timeout,
/// error = 100 % (i.e. the confidence stop is effectively disabled — this is
/// the "Default" fixed-sample-size technique).
struct TunerOptions {
  std::uint64_t invocations = 10;    ///< outer loop cap (Table I)
  std::uint64_t iterations = 200;    ///< inner loop cap (Table I)
  util::Seconds timeout{10.0};       ///< per-invocation kernel-time budget (-t)
  double confidence = 0.99;          ///< CI level for conditions 3 and 4
  double tolerance = 0.01;           ///< ±1 % convergence width for condition 3

  bool confidence_stop = false;      ///< enable condition 3 ("C")
  /// Minimum samples before condition 3 may declare convergence.  A 99 % CI
  /// over two samples is frequently — and spuriously — tight, locking in a
  /// noisy mean; Georges et al. only trust the normality assumption for
  /// larger n, so a small guard is applied at both loop levels.
  std::uint64_t confidence_min_samples = 5;
  bool inner_prune = false;          ///< condition 4 on the iteration loop ("I")
  bool outer_prune = false;          ///< condition 4 on the invocation loop ("O")
  SearchOrder order = SearchOrder::Forward;  ///< "R" = Reverse
  std::uint64_t prune_min_count = 2; ///< min iterations before condition 4 may fire
  bool trend_guard = false;          ///< §VII trend-aware pruning guard
  stats::IntervalMethod interval_method = stats::IntervalMethod::Normal;
  std::uint64_t random_seed = 0x5EED04D3Bull;  ///< for SearchOrder::Random

  /// Evaluation schedule (see SearchStrategy).  Racing honours the same
  /// stop conditions per invocation/configuration; only the interleaving
  /// and the population-wide elimination differ.
  SearchStrategy strategy = SearchStrategy::Exhaustive;
  /// Minimum invocations a racing survivor must have before the CI
  /// elimination may remove it (guards against spuriously tight two-sample
  /// intervals, same rationale as confidence_min_samples).
  std::uint64_t racing_min_invocations = 3;
  /// Iteration cap per racing invocation (a racing round grants a *batch*
  /// of samples, not a fully converged evaluation — refinement comes from
  /// later rounds, and losers are gone before they ever run long).  0 means
  /// use the full `iterations` budget, which recovers warm-up-heavy optima
  /// (see docs/racing.md) at sequential-technique cost.
  std::uint64_t racing_iterations = 8;

  /// Surrogate strategy (core/surrogate.hpp): size of the Latin-hypercube
  /// seed batch measured before the model is fitted.  Budgets at or above
  /// the space cardinality degenerate to exhaustive search.
  std::uint64_t surrogate_seed_budget = 64;
  /// Number of top-predicted unvisited configurations confirmed through the
  /// racing/CI machinery after the prune (0 = trust the seed batch alone).
  std::uint64_t surrogate_confirm_top = 16;

  /// Counter-guided bottleneck pruning (core/bottleneck.hpp,
  /// --counter-prune): abandon a configuration after its first
  /// `counter_prune_window` invocations when the roofline bound derived
  /// from its hardware-counter signature — inflated by
  /// `counter_prune_margin` — cannot reach the incumbent.  Off by default;
  /// composes with every strategy (exhaustive checks per invocation,
  /// racing prunes before CI elimination spends further rounds, surrogate
  /// inherits it in the confirm race).  Requires the roofline ceilings
  /// below; without them the policy stays inert.
  bool counter_prune = false;
  double counter_prune_margin = 0.25;
  std::uint64_t counter_prune_window = 2;
  /// Roofline ceilings for the machine the run executes on, in the
  /// paper's convention (peak FLOP rate and DRAM bandwidth for the sockets
  /// in use).  Plain doubles so core needs no machine model: the CLI fills
  /// them from simhw::MachineSpec or --custom-machine.
  double counter_peak_gflops = 0.0;
  double counter_dram_gbps = 0.0;

  /// Adaptive timing batches: when the estimated per-iteration kernel time
  /// falls within `batch_overhead_ratio` x the backend clock's per-call
  /// overhead, the inner loop times groups of iterations with one timer
  /// pair, growing the group geometrically (Google Benchmark style) up to
  /// `max_timing_batch` iterations.  A clock with zero overhead (the
  /// simulated backends by default) never triggers batching, so existing
  /// schedules are bit-identical.
  double batch_overhead_ratio = 100.0;
  std::uint64_t max_timing_batch = 1024;

  /// Observability sink (src/trace).  Non-owning and null by default: every
  /// emission site guards with one pointer test, so tracing off costs
  /// nothing measurable (docs/observability.md records the A/B).  The sink
  /// must tolerate concurrent emission when used with ParallelEvaluator.
  /// Excluded from TuningSession fingerprints — attaching a journal never
  /// invalidates a checkpoint.
  TraceSink* trace = nullptr;
  /// Checkpoint log (core/session.hpp), non-owning and null by default.
  /// While it holds logged invocations, run_invocation replays them instead
  /// of calling the backend; after that it appends every live invocation.
  /// Set by TuningSession; excluded from fingerprints like `trace`.
  InvocationLog* checkpoint = nullptr;
  /// Journal file path, recorded in checkpoints so a resumed session keeps
  /// appending to the trace it started (core/session.cpp refuses to resume
  /// under a different path).  Metadata only; core never opens it.
  std::string trace_path;
  /// Stable hash of the machine-environment fingerprint the run executes
  /// under (telemetry::EnvironmentFingerprint::stable_hash(), set by the
  /// CLI).  Recorded in TuningSession checkpoints; a resume whose
  /// environment hash differs is refused — measurements taken under a
  /// different governor/turbo/topology are not comparable, the same policy
  /// as the journal-path mismatch above.  0 means unknown: the check is
  /// skipped (old checkpoints, embedders without telemetry).
  std::uint64_t env_fingerprint = 0;
};

/// Outcome of one program invocation (one pass of the inner loop).
struct InvocationResult {
  stats::OnlineMoments moments;      ///< per-iteration samples
  std::uint64_t iterations = 0;
  StopReason stop_reason = StopReason::None;
  util::Seconds kernel_time{0.0};    ///< accumulated kernel time
  util::Seconds wall_time{0.0};      ///< backend-clock delta incl. overheads
  /// Backend-clock time spent in begin_invocation + end_invocation: buffer
  /// allocation, operand init, preheat, teardown.  wall_time - setup_time -
  /// kernel_time is timer/loop overhead.  This is the cost the workspace
  /// arena attacks; reports split it out so the effect is visible.
  util::Seconds setup_time{0.0};
  /// Samples were still trending upward when the invocation ended (warm-up /
  /// frequency ramp not settled) — the racing scheduler refuses to eliminate
  /// on such a mean (docs/racing.md).
  bool trend_rising = false;
  /// Hardware-counter deltas over the timed kernel phase, when available
  /// (backend counter model, else the trace sink's sampler).
  std::optional<CounterSample> counters;
  /// Counter-prune evidence, computed at invocation time while the backend
  /// is in scope (analytic flops + metric conversion need it); the
  /// schedulers only compare `counter_bound` against the incumbent.  Set
  /// only when TunerOptions::counter_prune is armed with valid ceilings.
  std::optional<BottleneckVerdict> bottleneck;
  std::optional<double> counter_bound;  ///< verdict bound in the run's metric

  [[nodiscard]] double mean() const { return moments.mean(); }
};

/// Outcome of fully evaluating one configuration (all invocations).
struct ConfigResult {
  Configuration config;
  std::vector<InvocationResult> invocations;
  stats::OnlineMoments outer_moments;  ///< across invocation means
  StopReason outer_stop = StopReason::None;
  /// Sum of invocation wall_time: a pure function of the invocations, so it
  /// is the same for any worker assignment and across checkpoint resumes.
  util::Seconds total_time{0.0};
  util::Seconds total_setup_time{0.0};   ///< sum of invocation setup_time
  util::Seconds total_kernel_time{0.0};  ///< sum of invocation kernel_time
  std::uint64_t total_iterations = 0;

  /// The configuration's reported metric: mean of invocation means over
  /// *completed* invocations.  An invocation cut short by the inner
  /// upper-bound prune exited mid-benchmark, so its mean is a truncated,
  /// downward-biased estimate — evidence enough to abandon a loser, but
  /// not a measurement.  Mixing it in would let a falsely-pruned winner
  /// report a degraded value.  When every invocation was pruned (the
  /// config really cannot win), the biased mean is all there is and is
  /// reported as before.  Stop conditions keep using `outer_moments`,
  /// which includes all invocations, so pruning behaviour is unchanged.
  [[nodiscard]] double value() const;

  /// True when condition 4 cut evaluation short at either level.
  [[nodiscard]] bool pruned() const;
};

/// True when the counter-prune policy can actually fire: enabled and armed
/// with both roofline ceilings.  Shared by the schedulers (evaluator,
/// racing) so "on but ceilings unknown" degrades to a no-op everywhere.
[[nodiscard]] bool counter_prune_armed(const TunerOptions& options);

/// Build a CounterPrune trace event from the invocation evidence; the
/// caller fills the logical sort key (epoch/ordinal/invocation/rank).
/// Requires invocation.bottleneck and invocation.counter_bound.
[[nodiscard]] TraceEvent make_counter_prune_event(
    const InvocationResult& invocation, const ConfigResult& result,
    const TunerOptions& options, std::optional<double> incumbent);

/// Emit the rank-7 incumbent-update record: `result` (configuration
/// `ordinal` of epoch `epoch`) just became the best value.  Anchored to its
/// last invocation so it sorts after the config-done record.  No-op
/// without a sink.
void emit_incumbent_update(TraceSink* trace, std::uint64_t epoch,
                           std::uint64_t ordinal, const ConfigResult& result);

/// Pre-invocation counter hint: the backend's predicted OI for `config`
/// (Backend::analytic_intensity) turned into a roofline ceiling in the
/// backend's metric, with the class the ridge point assigns it.  Only
/// GFLOP-family metrics convert without per-config byte counts, so other
/// backends get no hint (and are never skipped).  Requires armed options.
struct CounterHint {
  double oi = 0.0;            ///< predicted flops/byte
  double bound_metric = 0.0;  ///< min(peak, DRAM_bw × OI) in the metric
  BottleneckClass cls = BottleneckClass::Unknown;
};
[[nodiscard]] std::optional<CounterHint> counter_hint(
    const Backend& backend, const Configuration& config,
    const TunerOptions& options);

/// Run one invocation of `config`.  `incumbent` is the best configuration
/// value seen so far (enables inner pruning when options.inner_prune).
/// `trace_ctx` locates the invocation in the schedule for the journal and
/// the checkpoint log; callers without either can ignore it.  With
/// options.checkpoint set, a logged invocation is returned without calling
/// the backend, and a live one is appended to the log.
InvocationResult run_invocation(Backend& backend, const Configuration& config,
                                std::uint64_t invocation_index,
                                const TunerOptions& options,
                                std::optional<double> incumbent,
                                const TraceContext& trace_ctx = {});

/// Run the full outer loop for `config`.
ConfigResult run_configuration(Backend& backend, const Configuration& config,
                               const TunerOptions& options,
                               std::optional<double> incumbent,
                               const TraceContext& trace_ctx = {});

}  // namespace rooftune::core

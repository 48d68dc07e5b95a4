#pragma once
// Trace event seam between the measurement stack and the observability
// layer (src/trace).
//
// The evaluator, the racing scheduler, and the parallel evaluator emit
// fine-grained events — invocation spans, stop-condition decisions with the
// CI numbers at that instant, racing round transitions, incumbent updates —
// through the abstract TraceSink owned by TunerOptions::trace.  core only
// defines the seam; the concrete journal (per-worker JSONL serialization,
// perf-counter sampling, deterministic merge) lives in src/trace so the
// tuner keeps zero observability dependencies and a null sink costs one
// pointer test per emission site.
//
// Determinism contract: every event carries a *logical* position
// (epoch, config ordinal, invocation, rank) instead of a host timestamp.
// The journal keeps each serialized line under that key and sorts by it
// when it writes, which makes simulator journals bit-identical run-to-run
// and across ParallelEvaluator worker counts — see docs/observability.md
// for the full schema and ordering rules.

#include <cstdint>
#include <optional>
#include <string>

#include "core/bottleneck.hpp"
#include "core/config.hpp"
#include "core/stop_condition.hpp"
#include "core/telemetry_span.hpp"
#include "util/workspace_arena.hpp"

namespace rooftune::core {

/// Logical position of an evaluation inside the tuning schedule.  Emitters
/// fill it from what they know: the serial autotuner uses the configuration
/// index for both fields; the parallel evaluator uses the wave index as the
/// epoch; the racing scheduler uses the round (== invocation index).
struct TraceContext {
  std::uint64_t epoch = 0;           ///< coarse schedule phase (see above)
  std::uint64_t config_ordinal = 0;  ///< index into the ordered config list
};

/// One observability event.  A flat tagged struct rather than a class
/// hierarchy: events cross a hot boundary (every invocation emits two), so
/// they are built on the stack and serialized by the sink on the emitting
/// thread; the journal keeps the line, never the event.
/// Fields beyond the sort key are meaningful only for the kinds that
/// document them; the journal serializes per kind.
struct TraceEvent {
  enum class Kind {
    IncumbentUpdate,  ///< a new best value was published to the schedule
    StopDecision,     ///< a stop condition ended a loop (see outer_level)
    Invocation,       ///< one completed invocation span (setup/kernel split)
    ConfigDone,       ///< a configuration left the schedule (any outcome)
    Elimination,      ///< racing removed a survivor (CI or inner prune)
    Round,            ///< racing round transition summary
    Resume,           ///< a checkpointed session restored prior progress
    SurrogateFit,     ///< surrogate model fitted (summary + per-seed records)
    PruneBatch,       ///< surrogate prune sweep (summary + kept candidates)
    CounterPrune,     ///< counter-guided bottleneck prune (core/bottleneck.hpp)
  };

  Kind kind = Kind::Invocation;

  // ---- logical sort key (epoch, config_ordinal, invocation, rank) ----
  std::uint64_t epoch = 0;
  std::uint64_t config_ordinal = 0;
  std::uint64_t invocation = 0;
  /// Within one (epoch, ordinal, invocation) cell: 0 incumbent-at-boundary,
  /// 1 iteration-level stop, 2 invocation span, 3 invocation-level stop,
  /// 4 config-done, 5 elimination, 6 round summary, 7 end-of-epoch
  /// incumbent.  Set by the emitters; the journal never reorders within a
  /// rank.
  int rank = 0;

  /// The configuration the event concerns (empty for Round/Resume events).
  Configuration config;

  // ---- StopDecision ----
  StopReason reason = StopReason::None;
  bool outer_level = false;       ///< true: invocation loop, false: iteration loop
  std::uint64_t count = 0;        ///< samples observed when the decision fired
  double mean = 0.0;              ///< running mean at that instant
  bool have_ci = false;           ///< CI fields valid (needs >= 2 samples)
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  double accumulated_s = 0.0;     ///< kernel seconds consumed (iteration level)
  std::optional<double> incumbent;  ///< pruning target in effect, if any

  // ---- Invocation ----
  std::uint64_t iterations = 0;
  double kernel_s = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Durations came from Backend::last_invocation_timing() — accumulated
  /// from zero per invocation, independent of the clock's base, hence
  /// bit-identical across worker assignments (simulated backends).
  bool deterministic_timing = false;
  double stddev = 0.0;
  bool trend_rising = false;
  std::optional<double> flops;  ///< analytic work executed (intensity column)
  std::optional<double> bytes;  ///< analytic traffic executed
  /// Arena counter delta over this invocation (absent when the backend has
  /// no arena).  Physical per-worker state: deltas depend on which worker's
  /// slab served the lease, so they are excluded from bit-identity claims.
  std::optional<util::ArenaStats> arena_delta;
  /// Machine telemetry over this span (Backend::last_invocation_telemetry).
  /// Routed by the journal to the telemetry sidecar — NEVER serialized into
  /// the journal itself, so the journal's byte-identity guarantee cannot
  /// depend on host machine state.
  std::optional<TelemetrySpan> telemetry;
  /// Backend-accounted hardware counters over this span (the simulated
  /// counter model, Backend::last_invocation_counters).  Deterministic, so
  /// the journal serializes them like sampled perf counters — which keeps
  /// simulated journals bit-identical while rendering measured OI columns.
  std::optional<CounterSample> counters;

  // ---- ConfigDone ----
  double value = 0.0;           ///< ConfigResult::value() at completion
  bool pruned = false;

  // ---- Elimination ----
  /// "iteration-ci" (round-one sample-batch CI), "invocation-ci"
  /// (later-round CI vs the leader), or "inner-prune" (upper-bound prune
  /// fired mid-invocation against the frozen incumbent).
  std::string basis;
  std::uint64_t leader_ordinal = 0;
  double leader_ci_lower = 0.0;
  double leader_ci_upper = 0.0;

  // ---- Round ----
  std::uint64_t survivors_before = 0;
  std::uint64_t survivors_after = 0;
  std::uint64_t eliminated = 0;
  std::uint64_t finished = 0;

  // ---- Resume ----
  std::uint64_t restored_configs = 0;

  // ---- SurrogateFit / PruneBatch ----
  // Both kinds come in two shapes, distinguished by `config`: an empty
  // config marks the phase summary; a non-empty config marks a per-config
  // record (seed predicted-vs-measured for SurrogateFit, kept candidate for
  // PruneBatch).  `count` carries the training-sample count and `value` the
  // measured seed value, reusing the fields above.
  std::optional<double> predicted;  ///< model prediction for this config
  double r2 = 0.0;                  ///< training R² (fit summary)
  bool model_log_scale = false;     ///< fit summary: model fitted in log space
  std::uint64_t scanned = 0;        ///< prune summary: unvisited configs scored
  std::uint64_t kept = 0;           ///< prune summary: candidates kept for confirm

  // ---- CounterPrune ----
  // `basis` carries the bottleneck class label ("dram-bound", ...),
  // `incumbent` the value the bound could not reach, `count`/`mean` the
  // invocation evidence (invocations observed, their mean).
  double bound = 0.0;               ///< roofline bound in the run's metric
  double margin = 0.0;              ///< safety margin the decision was gated by
  std::optional<double> oi;         ///< measured operational intensity
  bool widened = false;             ///< bound widened by multiplex scaling
};

/// Consumer of trace events.  Implementations must tolerate concurrent
/// emit() calls from ParallelEvaluator workers (the journal routes to
/// per-worker buffers); the kernel-phase hooks are always paired on the
/// thread that runs the invocation, bracketing exactly the timed iteration
/// loop — which is where per-invocation hardware counters attach.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  virtual void emit(const TraceEvent& event) = 0;

  /// Called after Backend::begin_invocation returns (setup done, first
  /// timed iteration about to run).
  virtual void kernel_phase_begin() {}

  /// Called after the iteration loop ends, before Backend::end_invocation.
  virtual void kernel_phase_end() {}

  /// Hardware counters the sink read over the last kernel phase on the
  /// calling thread (the journal's PerfCounterSampler), if any.  This is
  /// how real-hardware counter signatures flow back into core for the
  /// counter-prune policy; backends with their own counter model take
  /// precedence (Backend::last_invocation_counters).
  [[nodiscard]] virtual std::optional<CounterSample> kernel_phase_counters()
      const {
    return std::nullopt;
  }
};

}  // namespace rooftune::core

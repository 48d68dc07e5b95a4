#pragma once
// Racing evaluation scheduler: interleaved CI-elimination search.
//
// The paper's schedule (and Autotuner::run) evaluates configurations
// strictly one-after-another to completion; its condition 4 can only prune
// against an incumbent that already *finished*.  Racing interleaves the
// whole population instead: every round grants each surviving configuration
// one invocation, updates its Welford moments over invocation means, and
// then eliminates any survivor whose confidence-interval upper bound falls
// below the current leader's CI lower bound — the paper's condition 4
// applied across the population every round.  Losers die after a handful
// of invocations rather than after a full sequential evaluation, which is
// the standard racing/elimination result from the kernel-tuning literature
// (see docs/racing.md for the algorithm, its guarantees, and when
// elimination is unsafe under warm-up trends).
//
// The scheduler is exposed as primitives (init / round pieces / finish);
// the evaluation engine (core/pipeline.hpp) drives them.  Each round's
// config-ordered blocks are its pipeline unit and elimination decisions
// reduce in config order, so the serial Autotuner (one inline worker) and
// ParallelEvaluator (a pool) give bit-identical results for any worker
// count.  Every decision is a function of the invocation results, so a
// checkpointed TuningSession resumes a race by replaying its logged
// invocations through the ordinary tuner (core/session.hpp).

#include <cstdint>
#include <optional>
#include <vector>

#include "core/autotuner.hpp"
#include "core/backend.hpp"
#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "stats/trend.hpp"

namespace rooftune::core {

class RacingScheduler {
 public:
  /// Lifecycle of one configuration inside the race.
  enum class Status {
    Racing,      ///< still receiving invocations
    Finished,    ///< completed (invocation cap or outer convergence)
    Eliminated,  ///< CI-eliminated or inner/outer pruned — cannot win
  };

  /// Per-configuration racing state.  `result` accumulates exactly like the
  /// sequential evaluator's ConfigResult (same value()/pruned() semantics);
  /// the trend detector spans invocation means for the trend guard.
  struct Entry {
    ConfigResult result;
    Status status = Status::Racing;
    stats::TrendDetector trend{8};
  };

  /// The whole race; round counts completed rounds.
  struct State {
    std::vector<Entry> entries;
    std::uint64_t round = 0;

    [[nodiscard]] bool active() const;
  };

  explicit RacingScheduler(TunerOptions options);

  [[nodiscard]] const TunerOptions& options() const { return options_; }

  /// Fresh race over `configs` (already ordered).
  [[nodiscard]] State init(std::vector<Configuration> configs) const;

  /// Entries march in lockstep: a Racing entry participates in round r only
  /// while it holds exactly r invocations.
  [[nodiscard]] static std::vector<std::size_t> survivors(const State& state);

  /// Rounds execute in config-ordered blocks of this many entries; the
  /// frozen incumbent refreshes at each block boundary (an ordered
  /// reduction over everything already run).  During the first round this
  /// is what gives the inner upper-bound prune bite — by the second block
  /// an incumbent exists and hopeless configurations die mid-invocation,
  /// exactly like the sequential scan — while block boundaries are fixed
  /// in config order, so results stay independent of worker count.  Matches
  /// ParallelOptions::wave.
  static constexpr std::size_t kBlock = 16;

  /// survivors(state) chunked into kBlock-sized runs (the unit of work
  /// between incumbent refreshes).
  [[nodiscard]] static std::vector<std::vector<std::size_t>> round_blocks(
      const State& state);

  /// The incumbent value frozen for the upcoming round (best value() over
  /// all non-eliminated entries with at least one invocation).  Feeds the
  /// inner upper-bound prune, exactly like the exhaustive incumbent.
  [[nodiscard]] static std::optional<double> frozen_incumbent(const State& state);

  /// Counter-guided pre-invocation skip, applied to one upcoming block on
  /// the coordinating thread (right after the frozen incumbent is taken,
  /// before the block fans out to workers).  An entry that has never been
  /// invoked is eliminated outright — zero invocations spent — when the
  /// backend's predicted intensity (Backend::analytic_intensity) yields a
  /// roofline ceiling that cannot reach the incumbent even inflated by the
  /// policy margin.  The prediction is only trusted once calibrated:
  /// kCounterCalibration earlier invocations must have carried measured OIs
  /// agreeing with their predictions within kOiTolerance.  Both the
  /// calibration scan and the skip decisions are pure functions of (entry
  /// data, frozen incumbent), so any worker count and any checkpoint-resume
  /// point reproduces them bit for bit.  No-op unless counter pruning is
  /// armed.  Emits counter-prune + config-done records for each skip.
  void apply_counter_skips(State& state, const std::vector<std::size_t>& block,
                           std::optional<double> incumbent,
                           const Backend& backend) const;

  /// Measured-vs-predicted OI agreements required before pre-invocation
  /// skips arm, and the relative tolerance defining agreement.  On real
  /// PMUs the measured OI includes prefetch and capacity traffic the
  /// analytic model does not, so calibration fails open: no agreement, no
  /// skips, and the policy falls back to post-invocation pruning only.
  static constexpr std::uint64_t kCounterCalibration = 16;
  static constexpr double kOiTolerance = 0.05;

  /// Run one invocation of `config` on `backend` and return the result,
  /// with no State mutation (safe to call concurrently for *distinct*
  /// entries; each backend serves one entry at a time).  `ordinal` is the
  /// entry's index in the ordered config list — it keys the trace journal's
  /// logical sort and the checkpoint log, with the round as the epoch, so
  /// racing journals merge identically for any worker assignment.
  /// This is what pipeline workers call — the State is owned by the
  /// coordinator, which merges results via commit_invocation strictly in
  /// block order, so out-of-order completion can never reorder the race.
  /// `invocation_index` must be the entry's committed invocation count at
  /// dispatch time (the caller reads it before fanning out).
  [[nodiscard]] InvocationResult run_detached_invocation(
      Backend& backend, const Configuration& config,
      std::uint64_t invocation_index, std::optional<double> incumbent,
      std::size_t ordinal) const;

  /// Merge one completed invocation into `entry` (moments, trend, timing
  /// sums), in block order.  Coordinator
  /// only — entries are never touched from worker threads in pipeline mode.
  static void commit_invocation(Entry& entry, InvocationResult invocation);

  /// After every survivor ran its invocation: apply per-entry stops and the
  /// population-wide CI elimination, reducing in entry (config) order.
  /// Returns true while the race has survivors left.
  bool conclude_round(State& state) const;

  /// Reduce the final state to a TuningRun (same best/tie-breaking rule as
  /// the sequential evaluator: first strictly-greater value wins).
  /// total_time sums the invocations' wall_time, like the sequential
  /// evaluator.
  [[nodiscard]] static TuningRun finish(State state);

 private:
  TunerOptions options_;
  /// The invocation-level rules: convergence, every CI and the trend guard.
  StopRules rules_;
  /// options_ with the inner iteration cap reduced to racing_iterations.
  TunerOptions invocation_options_;
};

}  // namespace rooftune::core

#pragma once
// The evaluation engine: one epoch pipeline behind every strategy.
//
// Every strategy runs through one commit window (Pipeline::window).  An
// epoch is a batch of tasks; tasks may complete out of order on the pool,
// and the coordinator commits whole epochs strictly in epoch order.  With
// lookahead L, epoch e starts as soon as epoch e-L has committed, against
// the incumbent recorded at that commit — so the tasks of epoch e see the
// incumbent as of epoch e-L, a pure function of the schedule, never of
// worker timing.  At L = 1 each epoch sees the incumbent of every earlier
// epoch; with `wave` = 1 (and for racing at any `wave`) that is the
// paper's one-configuration-at-a-time schedule.
//
// The engine borrows its backends: worker w of the pool runs on
// backends[w].  With no pool every task runs inline on the calling thread
// against backends[0] — the serial Autotuner is exactly this engine at one
// inline backend, wave 1 and lookahead 1, and ParallelEvaluator is the same
// code over its own backend fleet and EvalPool.
//
// Strategies: exhaustive (epoch = wave of configurations, committed in
// config order with the rank-7 incumbent updates), racing (one window per
// round, epoch = config-ordered block; core/racing.hpp) and surrogate
// (exhaustive seed waves → fit/prune on the coordinator → confirm race;
// core/surrogate.hpp).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/autotuner.hpp"
#include "core/backend.hpp"
#include "core/eval_pool.hpp"
#include "core/racing.hpp"
#include "core/search_space.hpp"
#include "core/surrogate.hpp"

namespace rooftune::core {

/// Coordinator-side commit accounting.  `commit_wait_ns` sums one span per
/// committed epoch, from the completion of its last task to its commit
/// (a serial run has one configuration, or one racing block, per epoch);
/// `tasks` counts committed tasks.  Host wall-clock, so outside the
/// journal's bit-identity boundary; ParallelEvaluator folds it into
/// SchedulerStats.
struct CommitAccounting {
  std::uint64_t commit_wait_ns = 0;
  std::uint64_t tasks = 0;
};

class Pipeline {
 public:
  /// Index-addressed configuration source.  Called from the workers; must
  /// be a pure function of the index.
  using ConfigAt = std::function<Configuration(std::size_t)>;

  /// `backends` must outlive the pipeline and hold one backend per pool
  /// worker (at least one); a null `pool` runs every task inline on the
  /// calling thread.  `wave` (configurations per exhaustive epoch) and
  /// `lookahead` (epochs in flight) are clamped to >= 1.
  Pipeline(const TunerOptions& options, std::span<Backend* const> backends,
           EvalPool* pool, std::size_t wave, std::size_t lookahead);

  /// Exhaustive schedule over configurations [0, n).  `progress` fires in
  /// commit order, once per configuration.
  [[nodiscard]] TuningRun exhaustive(
      const ConfigAt& config_at, std::size_t n,
      const Autotuner::ProgressCallback& progress = {});

  /// Racing schedule over configurations [0, n) (core/racing.hpp).
  [[nodiscard]] TuningRun racing(const ConfigAt& config_at, std::size_t n);

  /// Surrogate schedule from a freshly initialized state: seed waves,
  /// fit/prune on the coordinator one epoch past them, then the confirm
  /// race with its sort key shifted past the seed phase.
  [[nodiscard]] TuningRun surrogate(const SearchSpace& space,
                                    SurrogateScheduler::State state);

  /// Sum of the backends' arena counters (nullopt when none has one).
  [[nodiscard]] std::optional<util::ArenaStats> arena_stats() const;

  [[nodiscard]] const CommitAccounting& accounting() const { return accounting_; }

 private:
  /// One task of an epoch: runs on a pool worker (or inline) against that
  /// worker's backend and stores its result where its epoch's commit reads
  /// it.  May throw.
  using Task = std::function<void(Backend&)>;
  /// Coordinator: make epoch e's tasks against the frozen incumbent.
  using Start =
      std::function<std::vector<Task>(std::size_t, std::optional<double>)>;
  /// Coordinator, strictly in epoch order: retire epoch e and return the
  /// incumbent that later epochs run against.
  using Commit = std::function<std::optional<double>(std::size_t)>;

  /// The one dispatch/commit window over epochs [0, epochs).  start(e)
  /// runs once epoch e-lookahead has committed, against the incumbent
  /// returned by that commit (`entry_incumbent` before any commit).  On the
  /// first task exception no further epoch starts, the epochs completed
  /// before the failing one still commit, every in-flight task drains, and
  /// the exception is rethrown; a throw from start or commit drains the
  /// same way.
  void window(std::size_t epochs, std::optional<double> entry_incumbent,
              const Start& start, const Commit& commit);

  /// Drive one race to completion: one window per round, epoch = block.
  /// A block's start (on the coordinator) emits the rank-0 incumbent event
  /// and applies the counter skips, so calibration always sees the same
  /// committed prefix.  The round barrier remains: conclude_round needs
  /// the whole round.
  void race(const RacingScheduler& scheduler, RacingScheduler::State& state);

  const TunerOptions& options_;
  std::span<Backend* const> backends_;
  EvalPool* pool_;
  std::size_t wave_;
  std::size_t lookahead_;
  CommitAccounting accounting_;
};

}  // namespace rooftune::core

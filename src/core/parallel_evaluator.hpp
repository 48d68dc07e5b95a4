#pragma once
// Concurrent configuration evaluation.
//
// The paper evaluates the 96-config DGEMM space strictly sequentially; on
// backends whose instances are independent (Backend::reentrant()) nothing
// forces that.  ParallelEvaluator gives every worker its own backend
// instance from a user factory and fans the configuration list out over
// them, while the CI-upper-bound pruning ("I"/"O" conditions) keeps
// working: the incumbent optimum is shared through an atomic, so a worker
// starting configuration i sees the best value any worker has finished by
// then.
//
// Live vs deterministic (ParallelOptions::deterministic).  Live workers
// pull from a shared queue and publish incumbents as they finish — fastest
// incumbent propagation, but *which* incumbent a pruned configuration saw
// depends on completion order, so pruned configurations' statistics may
// vary run to run.  Deterministic mode freezes the incumbent per epoch
// (wave of `wave` configs, or racing block), making results
// bit-reproducible for any worker count.
//
// Deterministic epochs (exhaustive waves, racing rounds, surrogate phases)
// run on a persistent work-stealing pool (core::EvalPool): tasks carry
// their logical sort key (epoch, ordinal), complete out of order, and a
// coordinator-side commit stage retires them strictly in key order.  With
// lookahead L, epoch e may execute as soon as epoch e-L has fully
// committed, against the incumbent snapshot recorded at that commit — so
// configs of epoch e see the incumbent as of epoch e-L, a pure function of
// the schedule.  At L = 1 each epoch sees the incumbent of every earlier
// epoch; with `wave` = 1 (and for racing at any `wave`) that is the serial
// Autotuner's schedule, and the trace journal matches the serial journal
// byte for byte.  L > 1 overlaps epochs — workers
// start epoch e+1 while epoch e stragglers finish — at the cost of an
// incumbent that lags L-1 extra epochs (slightly less prune bite, still
// bit-reproducible for any worker count at fixed L).
//
// Configurations are pulled lazily through an index-addressed getter (a
// SpaceView over the bijection, or a caller-supplied vector), so evaluating
// an enlarged grid never materializes the configuration list.
//
// Backends with process-global state (the native backends own the OpenMP
// runtime and thread affinity) report reentrant() == false; the evaluator
// then degrades to one worker and stays exactly equivalent to the serial
// loop.

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/autotuner.hpp"
#include "core/backend.hpp"
#include "core/eval_pool.hpp"
#include "core/evaluator.hpp"
#include "core/racing.hpp"
#include "core/search_space.hpp"

namespace rooftune::core {

struct ParallelOptions {
  /// Worker count; 0 = std::thread::hardware_concurrency().
  std::size_t workers = 0;
  /// Bit-reproducible epoch scheduling (see file comment).
  bool deterministic = false;
  /// Configurations per wave in deterministic mode.  Smaller waves track
  /// the serial incumbent more closely (better pruning) but synchronize
  /// more often.  Must not depend on the worker count, or determinism
  /// across worker counts is lost.
  std::size_t wave = 16;
  /// Epochs allowed in flight at once.  1 = each epoch waits for every
  /// earlier epoch to commit; N lets workers start epoch e+1 while epoch e
  /// stragglers finish, with the frozen incumbent lagging N-1 extra
  /// epochs.  Results
  /// remain bit-reproducible across worker counts and reruns at any fixed
  /// value; journals are a function of the lookahead itself.
  std::size_t lookahead = 1;
  /// Pin pool workers to CPUs once at pool construction (soft no-op where
  /// unsupported).
  bool pin_workers = false;
  /// Collect SchedulerStats into TuningRun::sched.  The counters are
  /// wall-clock measurements — nondeterministic by nature — which is why
  /// they live outside the journal's bit-identity boundary (a separate,
  /// optional record; see trace/journal.cpp).
  bool sched_stats = false;
};

class ParallelEvaluator {
 public:
  /// Creates one backend per worker.  Must be callable from the spawning
  /// thread; the produced backends are used from exactly one worker each.
  using BackendFactory = std::function<std::unique_ptr<Backend>()>;

  /// Index-addressed configuration source for the evaluation loops.  Called
  /// concurrently from workers; must be a pure function of the index.
  using ConfigAt = std::function<Configuration(std::size_t)>;

  ParallelEvaluator(BackendFactory factory, TunerOptions options,
                    ParallelOptions parallel = {});

  /// Evaluate `configs` (in the given order for reduction purposes) and
  /// reduce to a TuningRun.  total_time aggregates backend-clock time
  /// across workers (the cost metric of the paper's "Time" columns); the
  /// wall-clock win shows up in the caller's own clock.  Not available for
  /// the surrogate strategy, which needs the space itself — use
  /// run(const SearchSpace&).
  [[nodiscard]] TuningRun run(const std::vector<Configuration>& configs) const;

  /// Walk `space` per the TunerOptions (lazily, through a SpaceView), then
  /// evaluate.  Dispatches to the racing or surrogate schedulers when the
  /// strategy asks for them.
  [[nodiscard]] TuningRun run(const SearchSpace& space) const;

 private:
  /// Coordinator-side pipeline accounting (commit latency, committed
  /// tasks); merged into SchedulerStats when ParallelOptions::sched_stats.
  struct CommitAccounting {
    std::uint64_t commit_wait_ns = 0;
    std::uint64_t tasks = 0;
  };

  /// Clamped ParallelOptions::lookahead (>= 1).
  [[nodiscard]] std::size_t lookahead() const;

  /// Spawn the worker backend pool: probes reentrancy with the first
  /// backend and caps the pool at `max_workers` — callers pass the
  /// schedule's true concurrency ceiling (epoch size x lookahead), not
  /// just the config count, so small grids and racing blocks never
  /// oversubscribe backends that could not run concurrently anyway.
  [[nodiscard]] std::vector<std::unique_ptr<Backend>> make_backends(
      std::size_t max_workers) const;

  /// The persistent pool for the deterministic schedule, or null when the
  /// schedule is serial (one backend).  Null pool = the pipeline drivers
  /// run tasks inline on the coordinator, which is exactly the serial
  /// schedule.
  [[nodiscard]] std::unique_ptr<EvalPool> make_pool(
      const std::vector<std::unique_ptr<Backend>>& backends) const;

  /// Fill TuningRun::sched from pool counters + commit accounting.
  void attach_sched_stats(TuningRun& run, const EvalPool* pool,
                          std::size_t backend_count,
                          const CommitAccounting& accounting) const;

  /// Sum of per-worker arena counters (nullopt when no backend has one).
  [[nodiscard]] static std::optional<util::ArenaStats> aggregate_arena_stats(
      const std::vector<std::unique_ptr<Backend>>& backends);

  /// Exhaustive schedule over configurations [0, n) pulled from `config_at`.
  [[nodiscard]] TuningRun run_impl(const ConfigAt& config_at, std::size_t n) const;

  /// Deterministic exhaustive schedule: epoch = wave index, out-of-order
  /// execution, in-order commit emitting rank-7 incumbent updates,
  /// `lookahead` epochs in flight.  Epoch e's frozen incumbent is the
  /// snapshot recorded when epoch e-lookahead fully committed.  Fills
  /// `results[0, n)`; `incumbent` carries state in and out.
  void evaluate_pipeline(EvalPool* pool,
                         std::vector<std::unique_ptr<Backend>>& backends,
                         const ConfigAt& config_at, std::size_t n,
                         std::atomic<double>& incumbent,
                         std::vector<std::optional<ConfigResult>>& results,
                         CommitAccounting* accounting) const;

  /// Drive one race to completion over the pool.  Shared by the racing
  /// strategy and the surrogate confirm phase, which passes a scheduler
  /// built from offset-traced options.  Blocks within a round are the
  /// pipeline unit — block b dispatches (prologue: rank-0 incumbent event
  /// + counter skips, on the coordinator) exactly when block b-lookahead
  /// has committed, workers run detached invocations, and the coordinator
  /// merges each block's results in block order (in-order commit).  The
  /// round barrier itself remains: conclude_round needs the whole round.
  void race_pipeline(EvalPool* pool,
                     std::vector<std::unique_ptr<Backend>>& backends,
                     const RacingScheduler& scheduler,
                     RacingScheduler::State& state,
                     CommitAccounting* accounting) const;

  /// Racing strategy: each round is one deterministic epoch over the pool
  /// (see core/racing.hpp).  Live and deterministic mode coincide here, and
  /// results are bit-identical for any worker count.
  [[nodiscard]] TuningRun run_racing(
      std::vector<std::unique_ptr<Backend>>& backends, EvalPool* pool,
      const std::vector<Configuration>& configs,
      CommitAccounting* accounting) const;

  /// Surrogate strategy: seed batch in deterministic waves, fit/prune on
  /// the coordinating thread, confirm race via race_pipeline.
  /// Always bit-reproducible across worker counts, like racing.  One pool
  /// serves both phases — seed and confirm tasks flow through the same
  /// threads with no teardown between phases.
  [[nodiscard]] TuningRun run_surrogate(const SearchSpace& space) const;

  BackendFactory factory_;
  TunerOptions options_;
  ParallelOptions parallel_;
};

}  // namespace rooftune::core

#pragma once
// Concurrent configuration evaluation.
//
// The paper evaluates the 96-config DGEMM space strictly sequentially; on
// backends whose instances are independent (Backend::reentrant()) nothing
// forces that.  ParallelEvaluator gives every worker its own backend
// instance from a user factory, owns a persistent worker pool
// (core::EvalPool), and runs the evaluation engine (core/pipeline.hpp)
// over them.  The serial Autotuner is the same engine at one inline
// worker, wave 1 and lookahead 1, so at those settings this evaluator
// reproduces the serial run, journal and report, byte for byte, at any
// worker count.
//
// Deterministic epochs (ParallelOptions::deterministic, and racing and
// surrogate always) freeze the incumbent per epoch — a wave of `wave`
// configurations, or a racing block — and commit strictly in key order, so
// results are bit-reproducible for any worker count at fixed wave and
// lookahead.  With lookahead L, epoch e executes against the incumbent as
// of epoch e-L: L > 1 overlaps epochs across stragglers at the cost of an
// incumbent that lags L-1 extra epochs.
//
// Live mode (deterministic = false, exhaustive only) pulls from a shared
// queue and publishes incumbents as they finish — fastest incumbent
// propagation, but *which* incumbent a pruned configuration saw depends on
// completion order, so pruned configurations' statistics may vary run to
// run.
//
// Configurations are pulled lazily through an index-addressed getter (a
// SpaceView over the bijection, or a caller-supplied vector), so evaluating
// an enlarged grid never materializes the configuration list.
//
// Backends with process-global state (the native backends own the OpenMP
// runtime and thread affinity) report reentrant() == false; the evaluator
// then degrades to one inline worker — exactly the serial run.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "core/autotuner.hpp"
#include "core/backend.hpp"
#include "core/eval_pool.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
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
  /// Clamped ParallelOptions::lookahead (>= 1).
  [[nodiscard]] std::size_t lookahead() const;

  /// Spawn the worker backend fleet: probes reentrancy with the first
  /// backend and caps the fleet at `max_workers` — callers pass the
  /// schedule's true concurrency ceiling (epoch size x lookahead), not
  /// just the config count, so small grids and racing blocks never
  /// oversubscribe backends that could not run concurrently anyway.
  [[nodiscard]] std::vector<std::unique_ptr<Backend>> make_backends(
      std::size_t max_workers) const;

  /// The persistent pool for `workers` backends, or null for one backend:
  /// the engine then runs every task inline on the coordinator, which is
  /// the serial schedule.
  [[nodiscard]] std::unique_ptr<EvalPool> make_pool(std::size_t workers) const;

  /// Fill TuningRun::sched from pool counters + commit accounting.
  void attach_sched_stats(TuningRun& run, const EvalPool* pool,
                          std::size_t backend_count,
                          const CommitAccounting& accounting) const;

  /// Exhaustive or racing schedule over configurations [0, n).
  [[nodiscard]] TuningRun run_impl(const Pipeline::ConfigAt& config_at,
                                   std::size_t n) const;

  /// Surrogate strategy: one backend fleet and pool serve the seed waves
  /// and the confirm race.  Always bit-reproducible across worker counts.
  [[nodiscard]] TuningRun run_surrogate(const SearchSpace& space) const;

  BackendFactory factory_;
  TunerOptions options_;
  ParallelOptions parallel_;
};

}  // namespace rooftune::core

#pragma once
// Exhaustive autotuner with incumbent tracking (paper §IV-C: for spaces of
// this cardinality, exhaustive search beats metaheuristics).  Also provides
// random search as the baseline alternative the paper mentions.
//
// The serial run is the evaluation engine (core/pipeline.hpp) at one inline
// worker: the caller's backend, no pool, one-configuration waves and
// lookahead 1 — the paper's one-configuration-at-a-time schedule.
// ParallelEvaluator runs the same engine over a pool, so serial and
// `--workers` results come from one implementation.

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "core/sched_stats.hpp"

namespace rooftune::core {

/// Complete record of one tuning run.
struct TuningRun {
  std::vector<ConfigResult> results;     ///< in visit order
  std::optional<std::size_t> best_index; ///< into results
  util::Seconds total_time{0.0};         ///< sum of the configurations' total_time
  util::Seconds total_setup_time{0.0};   ///< setup/teardown share of total_time
  util::Seconds total_kernel_time{0.0};  ///< measured-kernel share of total_time
  std::uint64_t total_iterations = 0;
  std::uint64_t total_invocations = 0;
  std::uint64_t pruned_configs = 0;
  /// Workspace-arena counters at the end of the run (backends that lease
  /// operands from a util::WorkspaceArena; aggregated across workers by
  /// ParallelEvaluator).  Reports use this to show slab hit rates.
  std::optional<util::ArenaStats> arena;
  /// Parallel-scheduler accounting (pool idle/park/commit-latency);
  /// present only when ParallelOptions::sched_stats asked for it.  The
  /// counters are wall-clock measurements, deliberately kept out of the
  /// journal's bit-identity boundary.
  std::optional<SchedulerStats> sched;

  /// Append one configuration's result: add it to the totals and keep the
  /// first strictly-greater value as the best.
  void add(ConfigResult result);
  /// Append another run's results after these, adding its totals as one
  /// subtotal (so a phase's sums keep their own grouping).
  void merge(TuningRun other);

  [[nodiscard]] const ConfigResult& best() const;
  [[nodiscard]] double best_value() const { return best().value(); }
  [[nodiscard]] const Configuration& best_config() const { return best().config; }

 private:
  /// Append without touching the totals; tracks best_index.
  void keep(ConfigResult result);
};

class Autotuner {
 public:
  /// Called after every evaluated configuration (progress reporting).
  using ProgressCallback =
      std::function<void(std::size_t index, std::size_t total, const ConfigResult&)>;

  Autotuner(SearchSpace space, TunerOptions options)
      : space_(std::move(space)), options_(options) {}

  [[nodiscard]] const TunerOptions& options() const { return options_; }
  [[nodiscard]] const SearchSpace& space() const { return space_; }

  void set_progress_callback(ProgressCallback callback) {
    progress_ = std::move(callback);
  }

  /// Search the whole space in the configured order.  With
  /// TunerOptions::strategy == SearchStrategy::Racing the schedule is the
  /// interleaved CI-elimination race (core/racing.hpp) instead of the
  /// paper's one-configuration-at-a-time loop; with Surrogate it is the
  /// model-guided seed → fit → prune → confirm pipeline
  /// (core/surrogate.hpp).  run_random is the exhaustive schedule over a
  /// sample; run_coordinate_descent is its own adaptive walk (each step
  /// depends on the previous evaluation).
  [[nodiscard]] TuningRun run(Backend& backend) const;

  /// Random search over `budget` configurations sampled without replacement
  /// (budget >= |space| degenerates to exhaustive in random order).
  [[nodiscard]] TuningRun run_random(Backend& backend, std::size_t budget) const;

  /// Coordinate descent: starting from `start` (default: the midpoint of
  /// every range), repeatedly sweep one parameter at a time over its full
  /// range while holding the others fixed, moving to the best value found;
  /// stops when a full pass over all parameters yields no improvement.
  /// Each configuration is evaluated at most once.  This is the kind of
  /// "more advanced technique" §IV-C argues is unnecessary at this
  /// cardinality — run bench/ablation_search_strategies to see the paper's
  /// claim quantified.
  [[nodiscard]] TuningRun run_coordinate_descent(
      Backend& backend, std::optional<Configuration> start = std::nullopt) const;

 private:
  SearchSpace space_;
  TunerOptions options_;
  ProgressCallback progress_;
};

}  // namespace rooftune::core

#pragma once
// Surrogate-model search: seed → fit → prune → confirm.
//
// Exhaustive and racing both pay for at least one visit to every
// configuration, so their cost grows linearly with space size.  The
// surrogate strategy decouples search cost from cardinality: a
// Latin-hypercube seed batch (SearchSpace::latin_hypercube_indices) is
// measured with the ordinary evaluator, a ridge-regression surrogate is
// fitted on the seed (configuration features → measured metric), the model
// scores every unvisited point of the lazily enumerated space, and only the
// top-k predictions are *confirmed* through the racing/CI machinery — so the
// statistical guarantees on the reported optimum are exactly racing's.
// Total kernel invocations are O(seed + confirm) instead of O(|space|).
//
// Everything is deterministic: the seed sample is counter-seeded from
// TunerOptions::random_seed, the model fit is a fixed-pivot dense solve,
// and the prune keeps ties by ascending cartesian index.  Like racing, the
// scheduler is exposed as primitives (init / fit_and_prune / finish) that
// the evaluation engine (core/pipeline.hpp) drives, serially and over a
// pool alike — see docs/search-strategies.md for the trade-off discussion.
// The fit and the confirm race are functions of the measured invocations,
// so a checkpointed TuningSession resumes either phase by replaying its
// logged invocations through the ordinary tuner (core/session.hpp); no
// model state is ever saved.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/autotuner.hpp"
#include "core/backend.hpp"
#include "core/evaluator.hpp"
#include "core/racing.hpp"
#include "core/search_space.hpp"
#include "core/trace_events.hpp"

namespace rooftune::core {

/// Ridge regression over quadratic features of per-dimension normalized
/// value ranks.  The feature map for a d-dimensional space is
/// [1, x_1..x_d, x_1²..x_d², x_i·x_j for i<j] with x = rank/(size-1); the
/// simulated response surfaces are Gaussian in log coordinates, so when all
/// training targets are positive the fit runs in log space, where the
/// quadratic basis is exact up to the noise floor.
class SurrogateModel {
 public:
  [[nodiscard]] static std::size_t feature_count(std::size_t dims);
  [[nodiscard]] static std::vector<double> features(const SearchSpace& space,
                                                    std::uint64_t cartesian_index);

  /// Fit by ridge-regularized normal equations (intercept unpenalized,
  /// Gaussian elimination with partial pivoting; lambda escalates ×10 on a
  /// singular system).  Deterministic for fixed inputs.
  [[nodiscard]] static SurrogateModel fit(const SearchSpace& space,
                                          const std::vector<std::uint64_t>& indices,
                                          const std::vector<double>& values,
                                          double lambda = 1e-6);

  [[nodiscard]] double predict(const SearchSpace& space,
                               std::uint64_t cartesian_index) const;
  [[nodiscard]] const std::vector<double>& coefficients() const { return coef_; }
  [[nodiscard]] bool log_scale() const { return log_scale_; }
  /// Coefficient of determination on the training batch, in fit scale.
  [[nodiscard]] double train_r2() const { return r2_; }

 private:
  std::vector<double> coef_;
  bool log_scale_ = false;
  double r2_ = 0.0;
};

/// TraceSink adapter shifting the logical sort key of every event by fixed
/// epoch/ordinal offsets.  The confirm phase reuses the racing scheduler
/// verbatim — racing keys events by (round, entry index) from zero — and
/// this adapter is what files them after the seed phase in the journal
/// without colliding with seed config ordinals.
class OffsetTraceSink final : public TraceSink {
 public:
  OffsetTraceSink(TraceSink* inner, std::uint64_t epoch_offset,
                  std::uint64_t ordinal_offset)
      : inner_(inner), epoch_offset_(epoch_offset), ordinal_offset_(ordinal_offset) {}

  void emit(const TraceEvent& event) override;
  void kernel_phase_begin() override;
  void kernel_phase_end() override;

 private:
  TraceSink* inner_;
  std::uint64_t epoch_offset_;
  std::uint64_t ordinal_offset_;
};

class SurrogateScheduler {
 public:
  /// The whole search.  Seed results accumulate in seed_indices order; the
  /// confirm race is a plain RacingScheduler::State over the kept
  /// candidates, so wave execution reuses racing's.
  struct State {
    std::vector<std::uint64_t> seed_indices;
    std::vector<ConfigResult> seed_results;        ///< in seed_indices order
    std::optional<SurrogateModel> model;
    std::vector<std::uint64_t> confirm_indices;    ///< top-k by prediction
    std::vector<double> confirm_predicted;
    std::uint64_t scanned = 0;                     ///< unvisited configs scored
    RacingScheduler::State race;                   ///< confirm phase
  };

  explicit SurrogateScheduler(TunerOptions options);

  [[nodiscard]] const TunerOptions& options() const { return options_; }

  /// Draw the Latin-hypercube seed batch (capped at the space cardinality).
  [[nodiscard]] State init(const SearchSpace& space) const;

  /// Fit the model on the completed seed batch, score every unvisited
  /// cartesian index, keep the top-k (ties by ascending index), and
  /// initialize the confirm race.  Emits the surrogate-fit / prune-batch
  /// records at `trace_epoch` (one epoch past the seed phase).
  void fit_and_prune(const SearchSpace& space, State& state,
                     std::uint64_t trace_epoch) const;

  /// Options for the confirm race, with the trace redirected through an
  /// OffsetTraceSink (pass null to keep tracing off).
  [[nodiscard]] TunerOptions confirm_options(TraceSink* sink) const;

  /// Merge seed + confirm results into the final TuningRun (seed results
  /// first, then confirm entries; first strictly-greater value wins).
  [[nodiscard]] static TuningRun finish(State state);

 private:
  TunerOptions options_;
};

}  // namespace rooftune::core

#pragma once
// The four stop conditions of §III-C as one flat value.
//
// StopRules holds the thresholds of both loop levels, which rules are on,
// and the z critical value of the running confidence interval.  It is
// built on the stack once per loop from TunerOptions and checked after
// every sample; the upper-bound rule (stop condition 4) is what the paper
// toggles as "Inner"/"Outer".

#include <cstdint>
#include <optional>
#include <string_view>

#include "stats/confidence.hpp"
#include "stats/trend.hpp"
#include "stats/welford.hpp"
#include "util/units.hpp"

namespace rooftune::core {

struct TunerOptions;

enum class StopReason {
  None,         ///< keep iterating
  MaxTime,      ///< accumulated kernel time exceeded the budget (cond. 1)
  MaxCount,     ///< iteration cap reached (cond. 2)
  Converged,    ///< CI within tolerance of the mean (cond. 3)
  PrunedByBest, ///< CI upper bound below incumbent optimum (cond. 4)
  CounterBound, ///< roofline bound from counter signature below incumbent
                ///< (core/bottleneck.hpp, --counter-prune)
};

const char* to_string(StopReason reason);

/// Inverse of to_string(StopReason): parses the exact strings the journal
/// and reports emit.  nullopt for anything else, so callers (the trace
/// reader) can reject unknown reason spellings instead of misfiling them.
std::optional<StopReason> stop_reason_from_string(std::string_view text);

class StopRules {
 public:
  /// Iteration loop: the time budget (-t), the iteration cap, the inner
  /// prune ("I", after prune_min_count iterations) and convergence ("C"),
  /// tested in that order.
  static StopRules inner(const TunerOptions& options);

  /// Invocation loop: the invocation cap, the outer prune ("O", after two
  /// invocations) and convergence, tested in that order.
  static StopRules outer(const TunerOptions& options);

  /// The first rule that fires after `count` samples summarized by
  /// `moments`, or StopReason::None to continue.  The prune rule needs an
  /// incumbent, and `trend` is what its trend guard reads.
  [[nodiscard]] StopReason check(const stats::OnlineMoments& moments,
                                 util::Seconds accumulated, std::uint64_t count,
                                 std::optional<double> incumbent,
                                 const stats::TrendDetector& trend) const;

  /// The running CI, bit-identical to stats::mean_confidence_interval at
  /// the options' confidence and interval method.
  [[nodiscard]] stats::ConfidenceInterval interval(
      const stats::OnlineMoments& moments) const;

  /// Condition 3: on, at least min-samples (and two) samples, and the CI
  /// within ±tolerance of the mean.
  [[nodiscard]] bool converged(const stats::OnlineMoments& moments) const;

  /// §VII trend guard: with it on, pruning waits while the trend window
  /// is too small to tell (under 8 samples) or shows a rising trend.
  [[nodiscard]] bool prune_deferred(const stats::TrendDetector& trend) const {
    return trend_guard_ && (trend.size() < 8 || trend.rising());
  }

 private:
  StopRules(const TunerOptions& options, util::Seconds budget,
            std::uint64_t cap, bool prune, std::uint64_t prune_min_count);

  util::Seconds budget_;  ///< +inf on the invocation loop: no time rule
  std::uint64_t cap_;
  bool prune_;
  std::uint64_t prune_min_count_;  ///< floored at 2
  bool converge_;
  std::uint64_t min_samples_;      ///< floored at 2
  double tolerance_;
  bool trend_guard_;
  double confidence_;
  stats::IntervalMethod method_;
  double z_;  ///< normal critical value at confidence_
};

}  // namespace rooftune::core

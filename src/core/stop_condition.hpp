#pragma once
// The four stop conditions of §III-C, as composable policies.
//
// Each condition inspects the running evaluation state after every sample
// and may end the loop with a reason.  The same machinery serves the inner
// iteration loop and the outer invocation loop; the upper-bound condition
// (stop condition 4) is what the paper toggles as "Inner"/"Outer".

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "stats/confidence.hpp"
#include "stats/trend.hpp"
#include "stats/welford.hpp"
#include "util/units.hpp"

namespace rooftune::core {

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

/// Everything a stop condition may inspect.
struct EvalState {
  const stats::OnlineMoments* moments = nullptr;   ///< running sample stats
  util::Seconds accumulated_time{0.0};             ///< kernel time so far
  std::uint64_t count = 0;                         ///< samples so far
  std::optional<double> incumbent;                 ///< best known config value
  const stats::TrendDetector* trend = nullptr;     ///< recent-sample trend
};

class StopCondition {
 public:
  virtual ~StopCondition() = default;

  /// Returns the reason to stop, or StopReason::None to continue.
  [[nodiscard]] virtual StopReason check(const EvalState& state) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Condition 1: accumulated kernel time >= budget (the -t flag, default 10 s).
class MaxTimeStop final : public StopCondition {
 public:
  explicit MaxTimeStop(util::Seconds budget);
  [[nodiscard]] StopReason check(const EvalState& state) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] util::Seconds budget() const { return budget_; }

 private:
  util::Seconds budget_;
};

/// Condition 2: sample count >= cap (cuts off high-variance configurations
/// whose CI converges slowly).
class MaxCountStop final : public StopCondition {
 public:
  explicit MaxCountStop(std::uint64_t cap);
  [[nodiscard]] StopReason check(const EvalState& state) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] std::uint64_t cap() const { return cap_; }

 private:
  std::uint64_t cap_;
};

/// Condition 3 ("Confidence"/"C"): stop when the CI at `confidence` has
/// boundaries within ±`tolerance` of the mean (paper: 99 % and 1 %).
class ConfidenceStop final : public StopCondition {
 public:
  ConfidenceStop(double confidence, double tolerance, std::uint64_t min_samples = 2,
                 stats::IntervalMethod method = stats::IntervalMethod::Normal);
  [[nodiscard]] StopReason check(const EvalState& state) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double confidence_;
  double tolerance_;
  std::uint64_t min_samples_;
  stats::IntervalMethod method_;
};

/// Condition 4 ("Inner"/"Outer" pruning): stop when the CI's upper bound is
/// below the incumbent optimum — the configuration cannot win (paper
/// Listing 1: mean + marg < best).  `min_count` guards configurations whose
/// performance rises during evaluation (§III-C.4; the 2695 v4 fix uses 100).
/// With `trend_guard`, a detected rising trend also defers pruning — the
/// §VII future-work refinement.
class UpperBoundStop final : public StopCondition {
 public:
  UpperBoundStop(double confidence, std::uint64_t min_count = 2,
                 bool trend_guard = false,
                 stats::IntervalMethod method = stats::IntervalMethod::Normal);
  [[nodiscard]] StopReason check(const EvalState& state) const override;
  [[nodiscard]] std::string name() const override;

 private:
  double confidence_;
  std::uint64_t min_count_;
  bool trend_guard_;
  stats::IntervalMethod method_;
};

/// Ordered set of stop conditions; first condition that fires wins.
class StopSet {
 public:
  void add(std::shared_ptr<const StopCondition> condition);

  [[nodiscard]] StopReason check(const EvalState& state) const;

  [[nodiscard]] std::size_t size() const { return conditions_.size(); }
  [[nodiscard]] const std::vector<std::shared_ptr<const StopCondition>>& conditions() const {
    return conditions_;
  }

 private:
  std::vector<std::shared_ptr<const StopCondition>> conditions_;
};

}  // namespace rooftune::core

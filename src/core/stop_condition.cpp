#include "core/stop_condition.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/strings.hpp"

namespace rooftune::core {

const char* to_string(StopReason reason) {
  switch (reason) {
    case StopReason::None: return "none";
    case StopReason::MaxTime: return "max-time";
    case StopReason::MaxCount: return "max-count";
    case StopReason::Converged: return "converged";
    case StopReason::PrunedByBest: return "pruned-by-best";
    case StopReason::CounterBound: return "counter-bound";
  }
  return "?";
}

std::optional<StopReason> stop_reason_from_string(std::string_view text) {
  for (const StopReason reason :
       {StopReason::None, StopReason::MaxTime, StopReason::MaxCount,
        StopReason::Converged, StopReason::PrunedByBest,
        StopReason::CounterBound}) {
    if (text == to_string(reason)) return reason;
  }
  return std::nullopt;
}

// ---- MaxTimeStop -----------------------------------------------------------

MaxTimeStop::MaxTimeStop(util::Seconds budget) : budget_(budget) {
  if (budget.value <= 0.0) throw std::invalid_argument("MaxTimeStop: budget must be > 0");
}

StopReason MaxTimeStop::check(const EvalState& state) const {
  return state.accumulated_time >= budget_ ? StopReason::MaxTime : StopReason::None;
}

std::string MaxTimeStop::name() const {
  return util::format("max-time(%.3gs)", budget_.value);
}

// ---- MaxCountStop ----------------------------------------------------------

MaxCountStop::MaxCountStop(std::uint64_t cap) : cap_(cap) {
  if (cap == 0) throw std::invalid_argument("MaxCountStop: cap must be > 0");
}

StopReason MaxCountStop::check(const EvalState& state) const {
  return state.count >= cap_ ? StopReason::MaxCount : StopReason::None;
}

std::string MaxCountStop::name() const {
  return "max-count(" + std::to_string(cap_) + ")";
}

// ---- ConfidenceStop --------------------------------------------------------

ConfidenceStop::ConfidenceStop(double confidence, double tolerance,
                               std::uint64_t min_samples, stats::IntervalMethod method)
    : confidence_(confidence),
      tolerance_(tolerance),
      min_samples_(std::max<std::uint64_t>(min_samples, 2)),
      method_(method) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("ConfidenceStop: confidence must be in (0,1)");
  }
  if (tolerance <= 0.0) throw std::invalid_argument("ConfidenceStop: tolerance must be > 0");
}

StopReason ConfidenceStop::check(const EvalState& state) const {
  if (state.moments == nullptr) return StopReason::None;
  return stats::has_converged(*state.moments, confidence_, tolerance_, min_samples_, method_)
             ? StopReason::Converged
             : StopReason::None;
}

std::string ConfidenceStop::name() const {
  return util::format("confidence(%.0f%%, +/-%.2g%%)", confidence_ * 100.0,
                      tolerance_ * 100.0);
}

// ---- UpperBoundStop --------------------------------------------------------

UpperBoundStop::UpperBoundStop(double confidence, std::uint64_t min_count,
                               bool trend_guard, stats::IntervalMethod method)
    : confidence_(confidence),
      min_count_(std::max<std::uint64_t>(min_count, 2)),
      trend_guard_(trend_guard),
      method_(method) {
  if (!(confidence > 0.0 && confidence < 1.0)) {
    throw std::invalid_argument("UpperBoundStop: confidence must be in (0,1)");
  }
}

StopReason UpperBoundStop::check(const EvalState& state) const {
  if (state.moments == nullptr || !state.incumbent.has_value()) return StopReason::None;
  if (state.count < min_count_) return StopReason::None;
  if (trend_guard_ && state.trend != nullptr &&
      (state.trend->size() < 8 || state.trend->rising())) {
    // §VII: performance still improving — hold off.  While the trend window
    // is too small to tell, pruning is also deferred (conservative: the
    // guard exists precisely because early samples can be misleading).
    return StopReason::None;
  }
  const auto ci = stats::mean_confidence_interval(*state.moments, confidence_, method_);
  // Paper Listing 1: terminate when mean + marg < best.
  return (ci.mean + ci.margin() < *state.incumbent) ? StopReason::PrunedByBest
                                                    : StopReason::None;
}

std::string UpperBoundStop::name() const {
  return util::format("upper-bound(%.0f%%, min=%llu%s)", confidence_ * 100.0,
                      static_cast<unsigned long long>(min_count_),
                      trend_guard_ ? ", trend-guard" : "");
}

// ---- StopSet ---------------------------------------------------------------

void StopSet::add(std::shared_ptr<const StopCondition> condition) {
  if (!condition) throw std::invalid_argument("StopSet::add: null condition");
  conditions_.push_back(std::move(condition));
}

StopReason StopSet::check(const EvalState& state) const {
  for (const auto& c : conditions_) {
    const StopReason r = c->check(state);
    if (r != StopReason::None) return r;
  }
  return StopReason::None;
}

}  // namespace rooftune::core

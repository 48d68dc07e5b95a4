#include "core/stop_condition.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/evaluator.hpp"
#include "stats/normal.hpp"

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

namespace {

// Each threshold test is written so that NaN fails it.
void require(bool ok, const char* message) {
  if (!ok) throw std::invalid_argument(message);
}

double checked_confidence(double confidence) {
  require(confidence > 0.0 && confidence < 1.0,
          "TunerOptions::confidence must be in (0,1)");
  return confidence;
}

}  // namespace

StopRules::StopRules(const TunerOptions& options, util::Seconds budget,
                     std::uint64_t cap, bool prune, std::uint64_t prune_min_count)
    : budget_(budget),
      cap_(cap),
      prune_(prune),
      prune_min_count_(std::max<std::uint64_t>(prune_min_count, 2)),
      converge_(options.confidence_stop),
      min_samples_(std::max<std::uint64_t>(options.confidence_min_samples, 2)),
      tolerance_(options.tolerance),
      trend_guard_(options.trend_guard),
      confidence_(checked_confidence(options.confidence)),
      method_(options.interval_method),
      z_(stats::normal_two_sided_critical(confidence_)) {
  require(!converge_ || tolerance_ > 0.0, "TunerOptions::tolerance must be > 0");
}

StopRules StopRules::inner(const TunerOptions& options) {
  require(options.timeout.value > 0.0, "TunerOptions::timeout must be > 0");
  require(options.iterations > 0, "TunerOptions::iterations must be > 0");
  return StopRules(options, options.timeout, options.iterations,
                   options.inner_prune, options.prune_min_count);
}

StopRules StopRules::outer(const TunerOptions& options) {
  require(options.invocations > 0, "TunerOptions::invocations must be > 0");
  return StopRules(options, util::Seconds{std::numeric_limits<double>::infinity()},
                   options.invocations, options.outer_prune, /*prune_min_count=*/2);
}

StopReason StopRules::check(const stats::OnlineMoments& moments,
                            util::Seconds accumulated, std::uint64_t count,
                            std::optional<double> incumbent,
                            const stats::TrendDetector& trend) const {
  if (accumulated >= budget_) return StopReason::MaxTime;
  if (count >= cap_) return StopReason::MaxCount;
  if (prune_ && incumbent.has_value() && count >= prune_min_count_ &&
      !prune_deferred(trend)) {
    const auto ci = interval(moments);
    // Paper Listing 1: terminate when mean + marg < best.
    if (ci.mean + ci.margin() < *incumbent) return StopReason::PrunedByBest;
  }
  return converged(moments) ? StopReason::Converged : StopReason::None;
}

stats::ConfidenceInterval StopRules::interval(const stats::OnlineMoments& moments) const {
  // Student-t's critical value depends on the count; it keeps the
  // per-thread memo inside mean_confidence_interval.
  if (method_ == stats::IntervalMethod::Normal) {
    return stats::confidence_interval_at(moments, confidence_, z_);
  }
  return stats::mean_confidence_interval(moments, confidence_, method_);
}

bool StopRules::converged(const stats::OnlineMoments& moments) const {
  return converge_ && moments.count() >= min_samples_ &&
         interval(moments).relative_half_width() <= tolerance_;
}

}  // namespace rooftune::core

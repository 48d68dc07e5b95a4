#pragma once
// Confidence intervals over OnlineMoments — the statistical heart of stop
// conditions 3 and 4 (§III-C).

#include "stats/welford.hpp"

namespace rooftune::stats {

/// A two-sided interval around a sample mean.
struct ConfidenceInterval {
  double mean = 0.0;
  double lower = 0.0;
  double upper = 0.0;
  double confidence = 0.0;  ///< e.g. 0.99

  /// The paper's `marg`: distance from the mean to the upper bound.
  [[nodiscard]] double margin() const { return upper - mean; }

  /// Half-width relative to |mean| — the ±1 % convergence test compares
  /// this against 0.01.  Returns +inf when mean == 0 and width > 0.
  [[nodiscard]] double relative_half_width() const;

  /// True when this interval and `other` share any point (Georges et al.
  /// overlapping-interval comparison).
  [[nodiscard]] bool overlaps(const ConfidenceInterval& other) const {
    return lower <= other.upper && other.lower <= upper;
  }

  [[nodiscard]] bool contains(double value) const {
    return lower <= value && value <= upper;
  }
};

/// Which critical value family to use for the CI.
enum class IntervalMethod {
  Normal,   ///< z critical values (paper §III-C.3, assumes n large)
  StudentT  ///< exact small-sample t critical values (our extension)
};

/// CI for the mean from streaming moments.  With fewer than two samples the
/// interval degenerates to [mean, mean].
ConfidenceInterval mean_confidence_interval(const OnlineMoments& moments,
                                            double confidence,
                                            IntervalMethod method = IntervalMethod::Normal);

/// The same interval at a given two-sided critical value, for callers that
/// compute it once (core::StopRules) instead of once per interval.
ConfidenceInterval confidence_interval_at(const OnlineMoments& moments,
                                          double confidence, double critical);

}  // namespace rooftune::stats

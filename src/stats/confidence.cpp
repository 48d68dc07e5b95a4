#include "stats/confidence.hpp"

#include <cmath>
#include <limits>

#include "stats/normal.hpp"
#include "stats/student_t.hpp"

namespace rooftune::stats {

double ConfidenceInterval::relative_half_width() const {
  const double half = 0.5 * (upper - lower);
  if (mean == 0.0) {
    return half == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return half / std::fabs(mean);
}

ConfidenceInterval confidence_interval_at(const OnlineMoments& moments,
                                          double confidence, double critical) {
  ConfidenceInterval ci;
  ci.mean = moments.mean();
  ci.confidence = confidence;
  if (moments.count() < 2) {
    ci.lower = ci.upper = ci.mean;
    return ci;
  }
  const double half = critical * moments.standard_error();
  ci.lower = ci.mean - half;
  ci.upper = ci.mean + half;
  return ci;
}

ConfidenceInterval mean_confidence_interval(const OnlineMoments& moments,
                                            double confidence,
                                            IntervalMethod method) {
  if (moments.count() < 2) return confidence_interval_at(moments, confidence, 0.0);
  double critical = 0.0;
  switch (method) {
    case IntervalMethod::Normal:
      critical = normal_two_sided_critical(confidence);
      break;
    case IntervalMethod::StudentT: {
      // The stop conditions call this after every sample, and the t
      // quantile is found by bisection (~10 us); memoize per
      // (confidence, dof).  thread_local: no locking, no sharing.
      const double dof = static_cast<double>(moments.count() - 1);
      thread_local double cached_confidence = -1.0;
      thread_local double cached_dof = -1.0;
      thread_local double cached_critical = 0.0;
      if (confidence != cached_confidence || dof != cached_dof) {
        cached_critical = student_t_two_sided_critical(confidence, dof);
        cached_confidence = confidence;
        cached_dof = dof;
      }
      critical = cached_critical;
      break;
    }
  }
  return confidence_interval_at(moments, confidence, critical);
}

}  // namespace rooftune::stats

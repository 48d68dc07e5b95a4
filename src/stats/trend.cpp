#include "stats/trend.hpp"

#include <cmath>
#include <stdexcept>

namespace rooftune::stats {

namespace {

/// Least-squares sums of value against sample index over the `used`
/// newest samples of the ring, oldest first (`next` is the write slot).
struct Sums {
  double n = 0.0, sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;

  Sums(const std::vector<double>& ring, std::size_t next, std::size_t used)
      : n(static_cast<double>(used)) {
    std::size_t at = next + ring.size() - used;
    if (at >= ring.size()) at -= ring.size();
    for (std::size_t i = 0; i < used; ++i) {
      const double x = static_cast<double>(i);
      const double y = ring[at];
      if (++at == ring.size()) at = 0;
      sx += x;
      sy += y;
      sxx += x * x;
      sxy += x * y;
    }
  }

  [[nodiscard]] double slope() const {
    const double denom = n * sxx - sx * sx;
    if (denom == 0.0) return 0.0;
    return (n * sxy - sx * sy) / denom;
  }
};

}  // namespace

TrendDetector::TrendDetector(std::size_t window) : ring_(window) {
  if (window < 4) throw std::invalid_argument("TrendDetector: window must be >= 4");
}

void TrendDetector::add(double x) {
  ring_[next_] = x;
  if (++next_ == ring_.size()) next_ = 0;
  if (used_ < ring_.size()) ++used_;
}

double TrendDetector::slope() const {
  if (used_ < 2) return 0.0;
  return Sums(ring_, next_, used_).slope();
}

double TrendDetector::relative_slope() const {
  if (used_ < 2) return 0.0;
  const Sums sums(ring_, next_, used_);
  const double mean = sums.sy / sums.n;
  if (mean == 0.0) return 0.0;
  return sums.slope() / std::fabs(mean);
}

bool TrendDetector::rising(double min_relative_slope) const {
  if (used_ < ring_.size() / 2 || used_ < 4) return false;
  return relative_slope() > min_relative_slope;
}

}  // namespace rooftune::stats

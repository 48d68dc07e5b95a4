#pragma once
// Online trend detection over the recent sample window.
//
// §VII future work: configurations whose performance keeps *rising* during
// evaluation (warm-up, frequency ramping) are at risk of being pruned by the
// upper-bound stop condition before they reveal their true performance.  The
// TrendDetector fits a least-squares line over a sliding window of the most
// recent samples; a significantly positive slope tells the stop condition to
// hold off.  This powers the trend guard of core::StopRules.

#include <cstddef>
#include <vector>

namespace rooftune::stats {

class TrendDetector {
 public:
  /// `window` = number of most recent samples considered (>= 4).
  explicit TrendDetector(std::size_t window = 16);

  void add(double x);

  [[nodiscard]] std::size_t size() const { return used_; }

  /// Least-squares slope of value against sample index over the window.
  /// Zero when fewer than two samples are available.
  [[nodiscard]] double slope() const;

  /// Slope divided by the window's mean value — "fractional improvement per
  /// iteration".  Zero when the mean is zero.
  [[nodiscard]] double relative_slope() const;

  /// True when the window shows a rising trend stronger than
  /// `min_relative_slope` (default 0.1 % per iteration) and the window is
  /// at least half full.
  [[nodiscard]] bool rising(double min_relative_slope = 1e-3) const;

 private:
  std::vector<double> ring_;
  std::size_t next_ = 0;
  std::size_t used_ = 0;
};

}  // namespace rooftune::stats

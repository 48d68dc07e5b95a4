#include "stats/confidence.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "stats/normal.hpp"
#include "util/rng.hpp"

namespace rooftune::stats {
namespace {

OnlineMoments from(std::initializer_list<double> xs) {
  OnlineMoments m;
  for (double x : xs) m.add(x);
  return m;
}

TEST(ConfidenceInterval, DegeneratesWithFewSamples) {
  OnlineMoments m;
  m.add(5.0);
  const auto ci = mean_confidence_interval(m, 0.99);
  EXPECT_DOUBLE_EQ(ci.lower, 5.0);
  EXPECT_DOUBLE_EQ(ci.upper, 5.0);
  EXPECT_DOUBLE_EQ(ci.margin(), 0.0);
}

TEST(ConfidenceInterval, MatchesManualFormula) {
  const auto m = from({10.0, 12.0, 11.0, 9.0, 13.0});
  const auto ci = mean_confidence_interval(m, 0.99);
  const double z = normal_two_sided_critical(0.99);
  const double half = z * m.stddev() / std::sqrt(5.0);
  EXPECT_NEAR(ci.lower, m.mean() - half, 1e-12);
  EXPECT_NEAR(ci.upper, m.mean() + half, 1e-12);
  EXPECT_NEAR(ci.margin(), half, 1e-12);
  EXPECT_DOUBLE_EQ(ci.confidence, 0.99);
}

TEST(ConfidenceInterval, StudentTWiderThanNormal) {
  const auto m = from({10.0, 12.0, 11.0, 9.0, 13.0});
  const auto z_ci = mean_confidence_interval(m, 0.99, IntervalMethod::Normal);
  const auto t_ci = mean_confidence_interval(m, 0.99, IntervalMethod::StudentT);
  EXPECT_GT(t_ci.margin(), z_ci.margin());
  EXPECT_DOUBLE_EQ(t_ci.mean, z_ci.mean);
}

TEST(ConfidenceInterval, RelativeHalfWidth) {
  ConfidenceInterval ci;
  ci.mean = 100.0;
  ci.lower = 99.0;
  ci.upper = 101.0;
  EXPECT_NEAR(ci.relative_half_width(), 0.01, 1e-12);

  ci.mean = 0.0;
  ci.lower = ci.upper = 0.0;
  EXPECT_DOUBLE_EQ(ci.relative_half_width(), 0.0);
  ci.upper = 1.0;
  EXPECT_TRUE(std::isinf(ci.relative_half_width()));
}

TEST(ConfidenceInterval, OverlapAndContainment) {
  ConfidenceInterval a{.mean = 1.0, .lower = 0.0, .upper = 2.0};
  ConfidenceInterval b{.mean = 2.5, .lower = 1.5, .upper = 3.5};
  ConfidenceInterval c{.mean = 5.0, .lower = 4.0, .upper = 6.0};
  EXPECT_TRUE(a.overlaps(b));
  EXPECT_TRUE(b.overlaps(a));
  EXPECT_FALSE(a.overlaps(c));
  EXPECT_TRUE(a.contains(1.5));
  EXPECT_FALSE(a.contains(2.5));
}

// Monte-Carlo coverage: the 95 % normal CI over n=100 normal samples should
// contain the true mean in roughly 95 % of trials.
TEST(ConfidenceInterval, CoverageIsApproximatelyNominal) {
  util::Xoshiro256 rng(20210615);
  int covered = 0;
  constexpr int trials = 2000;
  for (int t = 0; t < trials; ++t) {
    OnlineMoments m;
    for (int i = 0; i < 100; ++i) m.add(rng.normal(42.0, 5.0));
    if (mean_confidence_interval(m, 0.95).contains(42.0)) ++covered;
  }
  const double coverage = static_cast<double>(covered) / trials;
  EXPECT_NEAR(coverage, 0.95, 0.02);
}

// With only n=5 samples, normal-based intervals under-cover while t-based
// intervals stay near nominal — the motivation for IntervalMethod::StudentT.
TEST(ConfidenceInterval, SmallSampleTBeatsNormalCoverage) {
  util::Xoshiro256 rng(77);
  int covered_z = 0, covered_t = 0;
  constexpr int trials = 4000;
  for (int t = 0; t < trials; ++t) {
    OnlineMoments m;
    for (int i = 0; i < 5; ++i) m.add(rng.normal(0.0, 1.0));
    if (mean_confidence_interval(m, 0.95, IntervalMethod::Normal).contains(0.0)) {
      ++covered_z;
    }
    if (mean_confidence_interval(m, 0.95, IntervalMethod::StudentT).contains(0.0)) {
      ++covered_t;
    }
  }
  EXPECT_LT(covered_z, covered_t);
  EXPECT_NEAR(static_cast<double>(covered_t) / trials, 0.95, 0.025);
  EXPECT_LT(static_cast<double>(covered_z) / trials, 0.93);
}

}  // namespace
}  // namespace rooftune::stats

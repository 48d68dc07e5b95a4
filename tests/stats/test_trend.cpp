#include "stats/trend.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace rooftune::stats {
namespace {

TEST(TrendDetector, EmptyHasNoTrend) {
  TrendDetector t(8);
  EXPECT_DOUBLE_EQ(t.slope(), 0.0);
  EXPECT_FALSE(t.rising());
}

TEST(TrendDetector, ExactLinearSlope) {
  TrendDetector t(16);
  for (int i = 0; i < 16; ++i) t.add(3.0 + 2.0 * i);
  EXPECT_NEAR(t.slope(), 2.0, 1e-12);
}

TEST(TrendDetector, FlatDataHasZeroSlope) {
  TrendDetector t(8);
  for (int i = 0; i < 8; ++i) t.add(100.0);
  EXPECT_NEAR(t.slope(), 0.0, 1e-12);
  EXPECT_FALSE(t.rising());
}

TEST(TrendDetector, DetectsWarmupRamp) {
  // The §VII future-work scenario: performance rising during evaluation.
  TrendDetector t(16);
  for (int i = 0; i < 16; ++i) t.add(400.0 * (1.0 - 0.2 * std::exp(-i / 8.0)));
  EXPECT_TRUE(t.rising());
  EXPECT_GT(t.relative_slope(), 1e-3);
}

TEST(TrendDetector, SteadyNoisyDataNotRising) {
  TrendDetector t(16);
  util::Xoshiro256 rng(9);
  // Alternating noise around a constant: slope fitted over the window is
  // far below the 0.1 %/iteration threshold.
  for (int i = 0; i < 64; ++i) t.add(100.0 + rng.normal(0.0, 0.1));
  EXPECT_FALSE(t.rising());
}

TEST(TrendDetector, FallingTrendIsNotRising) {
  TrendDetector t(8);
  for (int i = 0; i < 8; ++i) t.add(100.0 - 5.0 * i);
  EXPECT_LT(t.slope(), 0.0);
  EXPECT_FALSE(t.rising());
}

TEST(TrendDetector, WindowSlides) {
  TrendDetector t(4);
  // Rising prefix followed by a flat tail longer than the window.
  for (int i = 0; i < 10; ++i) t.add(static_cast<double>(i));
  for (int i = 0; i < 8; ++i) t.add(10.0);
  EXPECT_NEAR(t.slope(), 0.0, 1e-12);
  EXPECT_EQ(t.size(), 4u);
}

TEST(TrendDetector, NeedsHalfFullWindow) {
  TrendDetector t(16);
  for (int i = 0; i < 5; ++i) t.add(static_cast<double>(i * 100));
  EXPECT_FALSE(t.rising());  // only 5 of 16 samples seen
}

TEST(TrendDetector, RejectsTinyWindow) {
  EXPECT_THROW(TrendDetector(3), std::invalid_argument);
}

}  // namespace
}  // namespace rooftune::stats

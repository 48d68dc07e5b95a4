#include "core/stop_condition.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

namespace rooftune::core {
namespace {

stats::OnlineMoments from(std::initializer_list<double> xs) {
  stats::OnlineMoments m;
  for (double x : xs) m.add(x);
  return m;
}

EvalState state_of(const stats::OnlineMoments& m, double time = 0.0,
                   std::uint64_t count = 0) {
  EvalState s;
  s.moments = &m;
  s.accumulated_time = util::Seconds{time};
  s.count = count == 0 ? m.count() : count;
  return s;
}

// ---- Condition 1: max time --------------------------------------------------

TEST(MaxTimeStop, FiresAtBudget) {
  const MaxTimeStop stop{util::Seconds{10.0}};
  const auto m = from({1.0});
  EXPECT_EQ(stop.check(state_of(m, 9.99)), StopReason::None);
  EXPECT_EQ(stop.check(state_of(m, 10.0)), StopReason::MaxTime);
  EXPECT_EQ(stop.check(state_of(m, 50.0)), StopReason::MaxTime);
}

TEST(MaxTimeStop, RejectsNonPositiveBudget) {
  EXPECT_THROW(MaxTimeStop{util::Seconds{0.0}}, std::invalid_argument);
  EXPECT_THROW(MaxTimeStop{util::Seconds{-1.0}}, std::invalid_argument);
}

// ---- Condition 2: max count -------------------------------------------------

TEST(MaxCountStop, FiresAtCap) {
  const MaxCountStop stop{200};
  const auto m = from({1.0});
  EXPECT_EQ(stop.check(state_of(m, 0.0, 199)), StopReason::None);
  EXPECT_EQ(stop.check(state_of(m, 0.0, 200)), StopReason::MaxCount);
}

TEST(MaxCountStop, RejectsZeroCap) {
  EXPECT_THROW(MaxCountStop{0}, std::invalid_argument);
}

// ---- Condition 3: confidence ------------------------------------------------

TEST(ConfidenceStop, FiresWhenTight) {
  const ConfidenceStop stop{0.99, 0.01};
  const auto tight = from({100.0, 100.01, 99.99, 100.0, 100.02, 99.98});
  EXPECT_EQ(stop.check(state_of(tight)), StopReason::Converged);
  const auto loose = from({80.0, 120.0, 95.0});
  EXPECT_EQ(stop.check(state_of(loose)), StopReason::None);
}

TEST(ConfidenceStop, NeedsMinSamples) {
  const ConfidenceStop stop{0.99, 0.01, 10};
  const auto tight = from({100.0, 100.0001, 100.0});
  EXPECT_EQ(stop.check(state_of(tight)), StopReason::None);
}

TEST(ConfidenceStop, Validation) {
  EXPECT_THROW(ConfidenceStop(0.0, 0.01), std::invalid_argument);
  EXPECT_THROW(ConfidenceStop(1.0, 0.01), std::invalid_argument);
  EXPECT_THROW(ConfidenceStop(0.99, 0.0), std::invalid_argument);
}

// ---- Condition 4: upper bound vs. incumbent --------------------------------

TEST(UpperBoundStop, PrunesWhenCannotWin) {
  const UpperBoundStop stop{0.99, 2};
  auto m = from({50.0, 51.0, 49.0, 50.5});
  auto s = state_of(m);
  s.incumbent = 100.0;  // far above any CI upper bound of ~50 +/- small
  EXPECT_EQ(stop.check(s), StopReason::PrunedByBest);
}

TEST(UpperBoundStop, KeepsContenders) {
  const UpperBoundStop stop{0.99, 2};
  auto m = from({99.0, 101.0, 100.5, 99.5});
  auto s = state_of(m);
  s.incumbent = 100.0;  // inside the CI: could still win
  EXPECT_EQ(stop.check(s), StopReason::None);
}

TEST(UpperBoundStop, NoIncumbentNoPrune) {
  const UpperBoundStop stop{0.99, 2};
  const auto m = from({1.0, 1.0, 1.0});
  EXPECT_EQ(stop.check(state_of(m)), StopReason::None);
}

TEST(UpperBoundStop, RespectsMinCount) {
  // §III-C.4: "it can be useful to increase this minimum count" — the
  // 2695 v4 fix uses 100.
  const UpperBoundStop stop{0.99, 100};
  auto m = from({50.0, 50.0, 50.0});
  auto s = state_of(m);
  s.incumbent = 1000.0;
  EXPECT_EQ(stop.check(s), StopReason::None);  // only 3 < 100 samples
}

TEST(UpperBoundStop, ImplementsListing1) {
  // Paper Listing 1: stop iff mean + marg < best.
  auto m = from({10.0, 10.2, 9.8, 10.1, 9.9});
  const auto ci = stats::mean_confidence_interval(m, 0.99);
  const UpperBoundStop stop{0.99, 2};

  auto s = state_of(m);
  s.incumbent = ci.mean + ci.margin() + 1e-9;  // just above the upper bound
  EXPECT_EQ(stop.check(s), StopReason::PrunedByBest);
  s.incumbent = ci.mean + ci.margin() - 1e-9;  // just below
  EXPECT_EQ(stop.check(s), StopReason::None);
}

TEST(UpperBoundStop, TrendGuardDefersPruning) {
  // §VII future work: a rising trend defers pruning even when the CI says
  // the configuration loses.
  stats::TrendDetector trend(8);
  stats::OnlineMoments m;
  for (int i = 0; i < 8; ++i) {
    const double v = 50.0 + 5.0 * i;  // strongly rising
    trend.add(v);
    m.add(v);
  }
  auto s = state_of(m);
  s.incumbent = 1000.0;
  s.trend = &trend;

  const UpperBoundStop guarded{0.99, 2, /*trend_guard=*/true};
  const UpperBoundStop unguarded{0.99, 2, /*trend_guard=*/false};
  EXPECT_EQ(guarded.check(s), StopReason::None);
  EXPECT_EQ(unguarded.check(s), StopReason::PrunedByBest);
}

// ---- StopSet ----------------------------------------------------------------

TEST(StopSet, FirstFiringConditionWins) {
  StopSet stops;
  stops.add(std::make_shared<MaxTimeStop>(util::Seconds{10.0}));
  stops.add(std::make_shared<MaxCountStop>(200));
  const auto m = from({1.0});
  // Both would fire; MaxTime is first.
  EXPECT_EQ(stops.check(state_of(m, 11.0, 500)), StopReason::MaxTime);
  // Only the count fires.
  EXPECT_EQ(stops.check(state_of(m, 1.0, 500)), StopReason::MaxCount);
  // Neither fires.
  EXPECT_EQ(stops.check(state_of(m, 1.0, 5)), StopReason::None);
}

TEST(StopSet, RejectsNull) {
  StopSet stops;
  EXPECT_THROW(stops.add(nullptr), std::invalid_argument);
}

TEST(StopConditions, NamesAreDescriptive) {
  EXPECT_NE(MaxTimeStop{util::Seconds{10.0}}.name().find("10"), std::string::npos);
  EXPECT_NE(MaxCountStop{200}.name().find("200"), std::string::npos);
  EXPECT_NE(ConfidenceStop(0.99, 0.01).name().find("99"), std::string::npos);
  EXPECT_NE(UpperBoundStop(0.99, 100).name().find("100"), std::string::npos);
}

TEST(StopReasonNames, ToString) {
  EXPECT_STREQ(to_string(StopReason::None), "none");
  EXPECT_STREQ(to_string(StopReason::MaxTime), "max-time");
  EXPECT_STREQ(to_string(StopReason::MaxCount), "max-count");
  EXPECT_STREQ(to_string(StopReason::Converged), "converged");
  EXPECT_STREQ(to_string(StopReason::PrunedByBest), "pruned-by-best");
}

}  // namespace
}  // namespace rooftune::core

#include "core/stop_condition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/evaluator.hpp"
#include "util/rng.hpp"

// The suites are named after the paper's four rules (§III-C), which
// StopRules holds as one value: MaxTimeStop (1), MaxCountStop (2),
// ConfidenceStop and HasConverged (3), UpperBoundStop (4).

namespace rooftune::core {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

stats::OnlineMoments from(std::initializer_list<double> xs) {
  stats::OnlineMoments m;
  for (double x : xs) m.add(x);
  return m;
}

/// rules.check over `m` with an empty trend window; `count` 0 means
/// m.count().
StopReason check(const StopRules& rules, const stats::OnlineMoments& m,
                 double time = 0.0, std::uint64_t count = 0,
                 std::optional<double> incumbent = std::nullopt) {
  const stats::TrendDetector trend(8);
  return rules.check(m, util::Seconds{time}, count == 0 ? m.count() : count,
                     incumbent, trend);
}

/// The message of the std::invalid_argument `make` throws, or "" if none.
template <typename F>
std::string rejection(F make) {
  try {
    static_cast<void>(make());
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TunerOptions pruning(std::uint64_t min_count = 2, bool trend_guard = false) {
  TunerOptions o;
  o.inner_prune = true;
  o.prune_min_count = min_count;
  o.trend_guard = trend_guard;
  return o;
}

TunerOptions converging(std::uint64_t min_samples = 2) {
  TunerOptions o;
  o.confidence_stop = true;
  o.confidence_min_samples = min_samples;
  return o;
}

// ---- Condition 1: max time --------------------------------------------------

TEST(MaxTimeStop, FiresAtBudget) {
  TunerOptions o;
  o.timeout = util::Seconds{10.0};
  const auto rules = StopRules::inner(o);
  const auto m = from({1.0});
  EXPECT_EQ(check(rules, m, 9.99), StopReason::None);
  EXPECT_EQ(check(rules, m, 10.0), StopReason::MaxTime);
  EXPECT_EQ(check(rules, m, 50.0), StopReason::MaxTime);
  // The invocation loop has no time budget.
  EXPECT_EQ(check(StopRules::outer(o), m, 50.0), StopReason::None);
}

TEST(MaxTimeStop, RejectsNonPositiveBudget) {
  for (const double budget : {0.0, -1.0, kNaN}) {
    TunerOptions o;
    o.timeout = util::Seconds{budget};
    EXPECT_EQ(rejection([&] { return StopRules::inner(o); }),
              "TunerOptions::timeout must be > 0")
        << budget;
  }
}

// ---- Condition 2: max count -------------------------------------------------

TEST(MaxCountStop, FiresAtCap) {
  TunerOptions o;
  o.iterations = 200;
  o.invocations = 20;
  const auto m = from({1.0});
  EXPECT_EQ(check(StopRules::inner(o), m, 0.0, 199), StopReason::None);
  EXPECT_EQ(check(StopRules::inner(o), m, 0.0, 200), StopReason::MaxCount);
  EXPECT_EQ(check(StopRules::outer(o), m, 0.0, 19), StopReason::None);
  EXPECT_EQ(check(StopRules::outer(o), m, 0.0, 20), StopReason::MaxCount);
}

TEST(MaxCountStop, RejectsZeroCap) {
  TunerOptions no_iterations;
  no_iterations.iterations = 0;
  EXPECT_EQ(rejection([&] { return StopRules::inner(no_iterations); }),
            "TunerOptions::iterations must be > 0");
  TunerOptions no_invocations;
  no_invocations.invocations = 0;
  EXPECT_EQ(rejection([&] { return StopRules::outer(no_invocations); }),
            "TunerOptions::invocations must be > 0");
}

// ---- Condition 3: confidence ------------------------------------------------

TEST(ConfidenceStop, FiresWhenTight) {
  const auto rules = StopRules::inner(converging());
  const auto tight = from({100.0, 100.01, 99.99, 100.0, 100.02, 99.98});
  EXPECT_EQ(check(rules, tight), StopReason::Converged);
  const auto loose = from({80.0, 120.0, 95.0});
  EXPECT_EQ(check(rules, loose), StopReason::None);
  // Off unless asked for.
  EXPECT_EQ(check(StopRules::inner(TunerOptions{}), tight), StopReason::None);
}

TEST(ConfidenceStop, NeedsMinSamples) {
  const auto rules = StopRules::inner(converging(10));
  const auto tight = from({100.0, 100.0001, 100.0});
  EXPECT_EQ(check(rules, tight), StopReason::None);
}

TEST(ConfidenceStop, Validation) {
  for (const double confidence : {0.0, 1.0, kNaN}) {
    TunerOptions o;
    o.confidence = confidence;
    EXPECT_EQ(rejection([&] { return StopRules::inner(o); }),
              "TunerOptions::confidence must be in (0,1)")
        << confidence;
    EXPECT_EQ(rejection([&] { return StopRules::outer(o); }),
              "TunerOptions::confidence must be in (0,1)")
        << confidence;
  }
  for (const double tolerance : {0.0, -0.01, kNaN}) {
    TunerOptions o = converging();
    o.tolerance = tolerance;
    EXPECT_EQ(rejection([&] { return StopRules::outer(o); }),
              "TunerOptions::tolerance must be > 0")
        << tolerance;
    // The tolerance is read only by the convergence rule.
    o.confidence_stop = false;
    EXPECT_EQ(rejection([&] { return StopRules::outer(o); }), "") << tolerance;
  }
}

TEST(HasConverged, FiresOnceIntervalIsTight) {
  // Tiny spread around 100: CI is far inside +/-1 %.
  const auto rules = StopRules::outer(converging());
  EXPECT_TRUE(rules.converged(from({100.0, 100.01, 99.99, 100.02, 99.98, 100.0})));
  EXPECT_FALSE(rules.converged(from({80.0, 120.0, 95.0, 110.0})));
}

TEST(HasConverged, RespectsMinSamples) {
  const auto tight = from({100.0, 100.0001});
  EXPECT_TRUE(StopRules::outer(converging(2)).converged(tight));
  EXPECT_FALSE(StopRules::outer(converging(5)).converged(tight));
}

TEST(HasConverged, NeverWithOneSample) {
  // min-samples is floored at two, so one sample never converges.
  const auto one = from({50.0});
  EXPECT_FALSE(StopRules::outer(converging(0)).converged(one));
  EXPECT_FALSE(StopRules::outer(converging(1)).converged(one));
}

// ---- Condition 4: upper bound vs. incumbent --------------------------------

TEST(UpperBoundStop, PrunesWhenCannotWin) {
  const auto m = from({50.0, 51.0, 49.0, 50.5});
  // Far above any CI upper bound of ~50 +/- small.
  EXPECT_EQ(check(StopRules::inner(pruning()), m, 0.0, 0, 100.0),
            StopReason::PrunedByBest);
  TunerOptions outer;
  outer.outer_prune = true;
  EXPECT_EQ(check(StopRules::outer(outer), m, 0.0, 0, 100.0),
            StopReason::PrunedByBest);
  // Each loop level prunes only when its own rule is on.
  EXPECT_EQ(check(StopRules::outer(pruning()), m, 0.0, 0, 100.0), StopReason::None);
  EXPECT_EQ(check(StopRules::inner(outer), m, 0.0, 0, 100.0), StopReason::None);
}

TEST(UpperBoundStop, KeepsContenders) {
  const auto m = from({99.0, 101.0, 100.5, 99.5});
  // Inside the CI: could still win.
  EXPECT_EQ(check(StopRules::inner(pruning()), m, 0.0, 0, 100.0), StopReason::None);
}

TEST(UpperBoundStop, NoIncumbentNoPrune) {
  const auto m = from({1.0, 1.0, 1.0});
  EXPECT_EQ(check(StopRules::inner(pruning()), m), StopReason::None);
}

TEST(UpperBoundStop, RespectsMinCount) {
  // §III-C.4: "it can be useful to increase this minimum count" — the
  // 2695 v4 fix uses 100.
  const auto m = from({50.0, 50.0, 50.0});
  EXPECT_EQ(check(StopRules::inner(pruning(100)), m, 0.0, 0, 1000.0),
            StopReason::None);  // only 3 < 100 samples
}

TEST(UpperBoundStop, ImplementsListing1) {
  // Paper Listing 1: stop iff mean + marg < best.
  const auto m = from({10.0, 10.2, 9.8, 10.1, 9.9});
  const auto ci = stats::mean_confidence_interval(m, 0.99);
  const auto rules = StopRules::inner(pruning());
  // Just above the upper bound, then just below.
  EXPECT_EQ(check(rules, m, 0.0, 0, ci.mean + ci.margin() + 1e-9),
            StopReason::PrunedByBest);
  EXPECT_EQ(check(rules, m, 0.0, 0, ci.mean + ci.margin() - 1e-9), StopReason::None);
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
  const auto guarded = StopRules::inner(pruning(2, /*trend_guard=*/true));
  const auto unguarded = StopRules::inner(pruning(2, /*trend_guard=*/false));
  const util::Seconds none{0.0};
  EXPECT_TRUE(guarded.prune_deferred(trend));
  EXPECT_FALSE(unguarded.prune_deferred(trend));
  EXPECT_EQ(guarded.check(m, none, m.count(), 1000.0, trend), StopReason::None);
  EXPECT_EQ(unguarded.check(m, none, m.count(), 1000.0, trend),
            StopReason::PrunedByBest);
}

// ---- The rules together ----------------------------------------------------

TEST(StopRules, FirstFiringRuleWins) {
  TunerOptions o = pruning();
  o.confidence_stop = true;
  o.confidence_min_samples = 2;
  o.timeout = util::Seconds{10.0};
  o.iterations = 200;
  const auto rules = StopRules::inner(o);
  const auto m = from({1.0});
  // Both would fire; MaxTime is first.
  EXPECT_EQ(check(rules, m, 11.0, 500), StopReason::MaxTime);
  // Only the count fires.
  EXPECT_EQ(check(rules, m, 1.0, 500), StopReason::MaxCount);
  // Neither fires.
  EXPECT_EQ(check(rules, m, 1.0, 5), StopReason::None);
  // A tight loser both converges and is pruned: pruning comes first.
  const auto tight = from({100.0, 100.01, 99.99, 100.0, 100.02, 99.98});
  EXPECT_EQ(check(rules, tight), StopReason::Converged);
  EXPECT_EQ(check(rules, tight, 0.0, 0, 200.0), StopReason::PrunedByBest);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// For random moments at every count from 2 to 300, under both interval
// methods and random rule settings: interval() is stats::
// mean_confidence_interval bit for bit, and check() is the rules written
// out below in their priority order.
TEST(StopRules, SweepMatchesTheWrittenOutRules) {
  util::Xoshiro256 rng(20211019);
  int fired[6] = {};
  for (const auto method :
       {stats::IntervalMethod::Normal, stats::IntervalMethod::StudentT}) {
    for (std::uint64_t n = 2; n <= 300; ++n) {
      TunerOptions o;
      o.interval_method = method;
      o.confidence = std::array{0.9, 0.95, 0.99}[rng.below(3)];
      o.tolerance = std::array{0.001, 0.01, 0.05}[rng.below(3)];
      o.confidence_stop = rng.below(4) != 0;
      o.confidence_min_samples = rng.below(20);
      o.inner_prune = rng.below(4) != 0;
      o.outer_prune = rng.below(4) != 0;
      o.prune_min_count = rng.below(20);
      o.trend_guard = rng.below(2) != 0;
      o.timeout = util::Seconds{1.0};
      o.iterations = 1 + rng.below(400);
      o.invocations = 1 + rng.below(400);
      const bool inner = rng.below(2) != 0;
      const auto rules = inner ? StopRules::inner(o) : StopRules::outer(o);

      // A warm-up ramp on some sets, so the trend guard sees both states.
      stats::OnlineMoments m;
      stats::TrendDetector trend(16);
      const double level = rng.uniform(1.0, 1000.0);
      const double noise = level * rng.uniform(0.0, 0.05);
      const double ramp = rng.below(3) == 0 ? level * 0.01 : 0.0;
      for (std::uint64_t i = 0; i < n; ++i) {
        const double x = level + ramp * static_cast<double>(i) + noise * rng.normal();
        m.add(x);
        trend.add(x);
      }

      const auto ci = rules.interval(m);
      const auto reference = stats::mean_confidence_interval(m, o.confidence, method);
      ASSERT_EQ(bits(ci.mean), bits(reference.mean)) << n;
      ASSERT_EQ(bits(ci.lower), bits(reference.lower)) << n;
      ASSERT_EQ(bits(ci.upper), bits(reference.upper)) << n;
      ASSERT_EQ(bits(ci.confidence), bits(reference.confidence)) << n;

      const double time = rng.uniform(0.9, 1.1);
      const std::uint64_t count = n + rng.below(3) * rng.below(200);
      std::optional<double> incumbent;
      if (rng.below(4) != 0) {
        incumbent = reference.mean + reference.margin() * rng.uniform(0.5, 1.5);
      }

      const bool timed = inner && time >= o.timeout.value;
      const std::uint64_t cap = inner ? o.iterations : o.invocations;
      const bool prune = inner ? o.inner_prune : o.outer_prune;
      const std::uint64_t min_count = inner ? std::max<std::uint64_t>(o.prune_min_count, 2) : 2;
      const bool deferred = o.trend_guard && (trend.size() < 8 || trend.rising());
      StopReason expected = StopReason::None;
      if (timed) {
        expected = StopReason::MaxTime;
      } else if (count >= cap) {
        expected = StopReason::MaxCount;
      } else if (prune && incumbent.has_value() && count >= min_count && !deferred &&
                 reference.mean + reference.margin() < *incumbent) {
        expected = StopReason::PrunedByBest;
      } else if (o.confidence_stop &&
                 m.count() >= std::max<std::uint64_t>(o.confidence_min_samples, 2) &&
                 reference.relative_half_width() <= o.tolerance) {
        expected = StopReason::Converged;
      }
      ASSERT_EQ(rules.check(m, util::Seconds{time}, count, incumbent, trend), expected)
          << "n=" << n << " inner=" << inner;
      ++fired[static_cast<int>(expected)];
    }
  }
  // The sweep reaches every rule and the no-stop outcome.
  for (const auto reason : {StopReason::None, StopReason::MaxTime, StopReason::MaxCount,
                            StopReason::Converged, StopReason::PrunedByBest}) {
    EXPECT_GT(fired[static_cast<int>(reason)], 10) << to_string(reason);
  }
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

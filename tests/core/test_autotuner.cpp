#include "core/autotuner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "fake_backend.hpp"

namespace rooftune::core {
namespace {

using testing::FakeBackend;

SearchSpace small_space() {
  SearchSpace space;
  space.add_range(ParameterRange("a", {1, 2, 3, 4, 5}));
  return space;
}

/// Value = 10 * a: argmax is a=5.
void program_linear(FakeBackend& backend) {
  for (std::int64_t a = 1; a <= 5; ++a) {
    backend.set_value(Configuration({{"a", a}}), 10.0 * static_cast<double>(a));
  }
}

TunerOptions quick_options() {
  TunerOptions o;
  o.invocations = 2;
  o.iterations = 5;
  return o;
}

TEST(Autotuner, FindsArgmaxExhaustively) {
  FakeBackend backend;
  program_linear(backend);
  const Autotuner tuner(small_space(), quick_options());
  const auto run = tuner.run(backend);
  ASSERT_TRUE(run.best_index.has_value());
  EXPECT_EQ(run.best_config().at("a"), 5);
  EXPECT_DOUBLE_EQ(run.best_value(), 50.0);
  EXPECT_EQ(run.results.size(), 5u);
}

TEST(Autotuner, ReverseOrderVisitsSameSetFindsSameBest) {
  FakeBackend fwd_backend, rev_backend;
  program_linear(fwd_backend);
  program_linear(rev_backend);

  auto options = quick_options();
  const Autotuner fwd(small_space(), options);
  options.order = SearchOrder::Reverse;
  const Autotuner rev(small_space(), options);

  const auto fwd_run = fwd.run(fwd_backend);
  const auto rev_run = rev.run(rev_backend);
  EXPECT_EQ(fwd_run.best_config(), rev_run.best_config());
  EXPECT_EQ(rev_run.results.front().config.at("a"), 5);
  EXPECT_EQ(fwd_run.results.front().config.at("a"), 1);
}

TEST(Autotuner, PruningSkipsLosersButKeepsWinner) {
  FakeBackend backend;
  program_linear(backend);
  auto options = quick_options();
  options.inner_prune = true;
  options.outer_prune = true;
  const Autotuner tuner(small_space(), options);
  const auto run = tuner.run(backend);
  EXPECT_EQ(run.best_config().at("a"), 5);
  // Forward order with rising values: nothing can be pruned (each new config
  // beats the incumbent).  Reverse order prunes everything after a=5.
  EXPECT_EQ(run.pruned_configs, 0u);

  FakeBackend rev_backend;
  program_linear(rev_backend);
  options.order = SearchOrder::Reverse;
  const Autotuner rev(small_space(), options);
  const auto rev_run = rev.run(rev_backend);
  EXPECT_EQ(rev_run.best_config().at("a"), 5);
  EXPECT_EQ(rev_run.pruned_configs, 4u);
  EXPECT_LT(rev_run.total_iterations, run.total_iterations);
}

TEST(Autotuner, TotalTimeIsSumOfWork) {
  FakeBackend backend(100.0, /*iteration_cost=*/0.01, /*invocation_overhead=*/0.1);
  const Autotuner tuner(small_space(), quick_options());
  const auto run = tuner.run(backend);
  // 5 configs * 2 invocations * (0.1 + 5 * 0.01).
  EXPECT_NEAR(run.total_time.value, 5 * 2 * 0.15, 1e-9);
  EXPECT_EQ(run.total_invocations, 10u);
  EXPECT_EQ(run.total_iterations, 50u);
}

TEST(Autotuner, ProgressCallbackSeesEveryConfig) {
  FakeBackend backend;
  Autotuner tuner(small_space(), quick_options());
  std::size_t calls = 0;
  std::size_t last_total = 0;
  tuner.set_progress_callback(
      [&](std::size_t index, std::size_t total, const ConfigResult& result) {
        EXPECT_EQ(index, calls);
        EXPECT_FALSE(result.config.empty());
        last_total = total;
        ++calls;
      });
  static_cast<void>(tuner.run(backend));
  EXPECT_EQ(calls, 5u);
  EXPECT_EQ(last_total, 5u);
}

TEST(Autotuner, RandomSearchSamplesWithoutReplacement) {
  FakeBackend backend;
  program_linear(backend);
  auto options = quick_options();
  options.random_seed = 7;
  const Autotuner tuner(small_space(), options);
  const auto run = tuner.run_random(backend, 3);
  EXPECT_EQ(run.results.size(), 3u);
  // No duplicates.
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    for (std::size_t j = i + 1; j < run.results.size(); ++j) {
      EXPECT_NE(run.results[i].config, run.results[j].config);
    }
  }
}

TEST(Autotuner, RandomSearchBudgetAboveSpaceIsExhaustive) {
  FakeBackend backend;
  program_linear(backend);
  const Autotuner tuner(small_space(), quick_options());
  const auto run = tuner.run_random(backend, 100);
  EXPECT_EQ(run.results.size(), 5u);
  EXPECT_EQ(run.best_config().at("a"), 5);
}

TEST(Autotuner, TieGoesToFirstVisited) {
  FakeBackend backend(42.0);  // every config identical
  const Autotuner tuner(small_space(), quick_options());
  const auto run = tuner.run(backend);
  EXPECT_EQ(*run.best_index, 0u);
}

TEST(TuningRun, BestThrowsWhenEmpty) {
  TuningRun run;
  EXPECT_THROW(static_cast<void>(run.best()), std::logic_error);
}

TEST(Autotuner, PrunedConfigValueNeverBeatsIncumbentAtPruneTime) {
  // Property: a pruned configuration's recorded value is below the best
  // value of the run (the pruning condition guarantees it with high
  // confidence; with deterministic streams it is exact).
  FakeBackend backend;
  program_linear(backend);
  auto options = quick_options();
  options.inner_prune = true;
  options.outer_prune = true;
  options.order = SearchOrder::Reverse;
  const Autotuner tuner(small_space(), options);
  const auto run = tuner.run(backend);
  for (const auto& r : run.results) {
    if (r.pruned()) {
      EXPECT_LT(r.value(), run.best_value());
    }
  }
}

}  // namespace
}  // namespace rooftune::core

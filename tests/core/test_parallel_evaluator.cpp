#include "core/parallel_evaluator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/autotuner.hpp"
#include "core/spaces.hpp"
#include "fake_backend.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune::core {
namespace {

// Small but non-trivial tuner budget so pruning has something to cut.
TunerOptions fast_options(bool prune) {
  TunerOptions options;
  options.invocations = 3;
  options.iterations = 25;
  options.inner_prune = prune;
  options.outer_prune = prune;
  return options;
}

ParallelEvaluator::BackendFactory sim_factory() {
  return [] {
    simhw::SimOptions sim;
    sim.seed = 2021;
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6148"), sim);
  };
}

std::vector<Configuration> reduced_configs() {
  return dgemm_reduced_space().enumerate();
}

// Bitwise comparison of two runs: same best, same per-config statistics.
void expect_identical_runs(const TuningRun& lhs, const TuningRun& rhs) {
  ASSERT_EQ(lhs.results.size(), rhs.results.size());
  EXPECT_EQ(lhs.best_index, rhs.best_index);
  EXPECT_EQ(lhs.total_iterations, rhs.total_iterations);
  EXPECT_EQ(lhs.total_invocations, rhs.total_invocations);
  EXPECT_EQ(lhs.pruned_configs, rhs.pruned_configs);
  for (std::size_t i = 0; i < lhs.results.size(); ++i) {
    const ConfigResult& a = lhs.results[i];
    const ConfigResult& b = rhs.results[i];
    EXPECT_EQ(a.config, b.config) << i;
    EXPECT_EQ(a.value(), b.value()) << i;  // bit-equal doubles
    EXPECT_EQ(a.total_iterations, b.total_iterations) << i;
    EXPECT_EQ(a.invocations.size(), b.invocations.size()) << i;
    EXPECT_EQ(a.outer_stop, b.outer_stop) << i;
  }
}

TEST(ParallelEvaluator, RejectsNullFactory) {
  EXPECT_THROW(ParallelEvaluator(nullptr, TunerOptions{}), std::invalid_argument);
}

TEST(ParallelEvaluator, EmptyConfigListYieldsEmptyRun) {
  ParallelEvaluator evaluator(sim_factory(), fast_options(false));
  const TuningRun run = evaluator.run(std::vector<Configuration>{});
  EXPECT_TRUE(run.results.empty());
  EXPECT_FALSE(run.best_index.has_value());
}

// The headline determinism guarantee: identical best configuration AND
// identical per-configuration statistics for any worker count.
TEST(ParallelEvaluator, DeterministicModeIsWorkerCountInvariant) {
  const auto configs = reduced_configs();
  std::vector<TuningRun> runs;
  for (std::size_t workers : {1u, 2u, 4u}) {
    ParallelOptions popts;
    popts.workers = workers;
    popts.deterministic = true;
    popts.wave = 8;
    ParallelEvaluator evaluator(sim_factory(), fast_options(true), popts);
    runs.push_back(evaluator.run(configs));
  }
  expect_identical_runs(runs[0], runs[1]);
  expect_identical_runs(runs[0], runs[2]);
  EXPECT_GT(runs[0].pruned_configs, 0u);  // pruning stayed active
}

// Without pruning the incumbent is irrelevant, so deterministic-parallel
// must reproduce the serial evaluator bit for bit.
TEST(ParallelEvaluator, DeterministicModeMatchesSerialWithoutPruning) {
  const auto configs = reduced_configs();
  const TunerOptions options = fast_options(false);

  Autotuner tuner(dgemm_reduced_space(), options);
  auto backend = sim_factory()();
  const TuningRun serial = tuner.run(*backend);

  ParallelOptions popts;
  popts.workers = 4;
  popts.deterministic = true;
  ParallelEvaluator evaluator(sim_factory(), options, popts);
  const TuningRun parallel = evaluator.run(configs);

  expect_identical_runs(serial, parallel);
}

// With pruning, deterministic mode sees a slightly lagged incumbent, so
// pruned configs may differ from serial — but the optimum must not.
TEST(ParallelEvaluator, DeterministicModeFindsSerialBestWithPruning) {
  const TunerOptions options = fast_options(true);

  Autotuner tuner(dgemm_reduced_space(), options);
  auto backend = sim_factory()();
  const TuningRun serial = tuner.run(*backend);

  ParallelOptions popts;
  popts.workers = 4;
  popts.deterministic = true;
  popts.wave = 8;
  ParallelEvaluator evaluator(sim_factory(), options, popts);
  const TuningRun parallel = evaluator.run(reduced_configs());

  ASSERT_TRUE(parallel.best_index.has_value());
  EXPECT_EQ(parallel.best_config(), serial.best_config());
  EXPECT_EQ(parallel.best_value(), serial.best_value());
}

// Live mode trades reproducibility of pruned-config stats for wall clock;
// the optimum it returns must still be the serial optimum.
TEST(ParallelEvaluator, LiveModeFindsSerialBest) {
  const TunerOptions options = fast_options(true);

  Autotuner tuner(dgemm_reduced_space(), options);
  auto backend = sim_factory()();
  const TuningRun serial = tuner.run(*backend);

  ParallelOptions popts;
  popts.workers = 4;
  ParallelEvaluator evaluator(sim_factory(), options, popts);
  const TuningRun live = evaluator.run(reduced_configs());

  ASSERT_TRUE(live.best_index.has_value());
  EXPECT_EQ(live.best_config(), serial.best_config());
}

// A non-reentrant backend (FakeBackend keeps the Backend default) must
// degrade to one worker instead of racing.
TEST(ParallelEvaluator, NonReentrantBackendDegradesToSerial) {
  const TunerOptions options = fast_options(false);
  const auto factory = [] {
    auto backend = std::make_unique<core::testing::FakeBackend>(100.0);
    return backend;
  };
  ASSERT_FALSE(core::testing::FakeBackend(1.0).reentrant());

  ParallelOptions popts;
  popts.workers = 8;
  ParallelEvaluator evaluator(factory, options, popts);
  const std::vector<Configuration> configs{dgemm_config(1, 1, 1),
                                           dgemm_config(2, 2, 2)};
  const TuningRun run = evaluator.run(configs);
  ASSERT_EQ(run.results.size(), 2u);
  EXPECT_DOUBLE_EQ(run.best_value(), 100.0);
}

TEST(ParallelEvaluator, SearchSpaceOverloadHonoursOrder) {
  TunerOptions options = fast_options(false);
  options.order = SearchOrder::Reverse;
  ParallelOptions popts;
  popts.workers = 2;
  popts.deterministic = true;
  ParallelEvaluator evaluator(sim_factory(), options, popts);
  const TuningRun run = evaluator.run(dgemm_reduced_space());
  const auto expected =
      ordered(dgemm_reduced_space().enumerate(), SearchOrder::Reverse, 0);
  ASSERT_EQ(run.results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(run.results[i].config, expected[i]) << i;
  }
}

ParallelEvaluator::BackendFactory arena_sim_factory() {
  return [] {
    simhw::SimOptions sim;
    sim.seed = 2021;
    sim.setup_overhead_s = 0.05;
    sim.arena_reuse = true;
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6148"), sim);
  };
}

// The arena setup model only moves the per-worker clocks, so the sample
// statistics must stay bit-identical across 1/2/8 workers, and the modelled
// arena counters must aggregate across the per-worker backends.
TEST(ParallelEvaluator, SetupModelIsWorkerCountInvariant) {
  const auto configs = reduced_configs();
  std::vector<TuningRun> runs;
  for (std::size_t workers : {1u, 2u, 8u}) {
    ParallelOptions popts;
    popts.workers = workers;
    popts.deterministic = true;
    popts.wave = 8;
    ParallelEvaluator evaluator(arena_sim_factory(), fast_options(false), popts);
    runs.push_back(evaluator.run(configs));
  }
  expect_identical_runs(runs[0], runs[1]);
  expect_identical_runs(runs[0], runs[2]);
  for (const TuningRun& run : runs) {
    ASSERT_TRUE(run.arena.has_value());
    // One modelled lease per invocation, independent of worker count.
    EXPECT_EQ(run.arena->leases, run.total_invocations);
    EXPECT_GT(run.arena->slab_hits, 0u);
    EXPECT_GT(run.total_setup_time.value, 0.0);
  }
  // Splitting the sequence across workers can only create more cold arenas:
  // every full-sequence high-water record is still a record in its worker's
  // subsequence, so a lone worker reuses at least as often.
  EXPECT_GE(runs[0].arena->slab_hits, runs[2].arena->slab_hits);
}

TEST(ParallelEvaluator, ArenaStatsAbsentWithoutModel) {
  ParallelEvaluator evaluator(sim_factory(), fast_options(false));
  const TuningRun run = evaluator.run(reduced_configs());
  EXPECT_FALSE(run.arena.has_value());
}

// --- pipeline scheduler ----------------------------------------------------

// Lookahead > 1 lags the frozen incumbent, so the schedule differs from
// lookahead 1 — but it must still be a pure function of (configs, lookahead):
// bit-identical across worker counts and reruns.
TEST(ParallelEvaluator, PipelineLookaheadIsWorkerCountInvariant) {
  const auto configs = reduced_configs();
  std::vector<TuningRun> runs;
  for (std::size_t workers : {1u, 2u, 8u, 2u}) {  // repeat w=2: rerun check
    ParallelOptions popts;
    popts.workers = workers;
    popts.deterministic = true;
    popts.wave = 8;
    popts.lookahead = 4;
    ParallelEvaluator evaluator(sim_factory(), fast_options(true), popts);
    runs.push_back(evaluator.run(configs));
  }
  expect_identical_runs(runs[0], runs[1]);
  expect_identical_runs(runs[0], runs[2]);
  expect_identical_runs(runs[1], runs[3]);
}

// Deep lookahead weakens pruning (laggier incumbent) but must never change
// which configuration wins: the serial Autotuner's optimum is the reference.
TEST(ParallelEvaluator, PipelineLookaheadFindsSerialBest) {
  const auto configs = reduced_configs();
  auto backend = sim_factory()();
  const TuningRun serial_run =
      Autotuner(dgemm_reduced_space(), fast_options(true)).run(*backend);

  ParallelOptions deep;
  deep.workers = 4;
  deep.deterministic = true;
  deep.lookahead = 8;
  const TuningRun deep_run =
      ParallelEvaluator(sim_factory(), fast_options(true), deep).run(configs);
  ASSERT_TRUE(deep_run.best_index.has_value());
  EXPECT_EQ(deep_run.best_config(), serial_run.best_config());
  EXPECT_EQ(deep_run.best_value(), serial_run.best_value());
}

ParallelEvaluator::BackendFactory counting_factory(
    std::shared_ptr<std::atomic<int>> created) {
  return [created] {
    created->fetch_add(1);
    simhw::SimOptions sim;
    sim.seed = 2021;
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6148"), sim);
  };
}

// The oversubscription fix: a grid smaller than the worker count must not
// instantiate (or thread) more backends than configurations.
TEST(ParallelEvaluator, SmallGridDoesNotOversubscribe) {
  auto created = std::make_shared<std::atomic<int>>(0);
  ParallelOptions popts;
  popts.workers = 8;
  popts.deterministic = true;
  ParallelEvaluator evaluator(counting_factory(created), fast_options(false),
                              popts);
  const std::vector<Configuration> configs{dgemm_config(512, 512, 128),
                                           dgemm_config(1024, 1024, 128)};
  const TuningRun run = evaluator.run(configs);
  EXPECT_EQ(run.results.size(), 2u);
  EXPECT_LE(created->load(), 2);
}

// Same for racing: the block size (not the population) bounds concurrency.
TEST(ParallelEvaluator, RacingSmallPopulationDoesNotOversubscribe) {
  auto created = std::make_shared<std::atomic<int>>(0);
  TunerOptions options = fast_options(true);
  options.strategy = SearchStrategy::Racing;
  ParallelOptions popts;
  popts.workers = 16;
  ParallelEvaluator evaluator(counting_factory(created), options, popts);
  const std::vector<Configuration> configs{dgemm_config(512, 512, 128),
                                           dgemm_config(1024, 1024, 128),
                                           dgemm_config(2048, 2048, 128)};
  const TuningRun run = evaluator.run(configs);
  EXPECT_EQ(run.results.size(), 3u);
  EXPECT_LE(created->load(), 3);
}

// ParallelOptions::sched_stats opts into scheduler accounting; off by
// default so nothing wall-clock-dependent leaks into ordinary runs.
TEST(ParallelEvaluator, SchedStatsOptIn) {
  const auto configs = reduced_configs();
  ParallelOptions popts;
  popts.workers = 2;
  popts.deterministic = true;
  {
    ParallelEvaluator evaluator(sim_factory(), fast_options(false), popts);
    EXPECT_FALSE(evaluator.run(configs).sched.has_value());
  }
  popts.sched_stats = true;
  ParallelEvaluator evaluator(sim_factory(), fast_options(false), popts);
  const TuningRun run = evaluator.run(configs);
  ASSERT_TRUE(run.sched.has_value());
  EXPECT_EQ(run.sched->mode, "pipeline");
  EXPECT_EQ(run.sched->workers, 2u);
  EXPECT_EQ(run.sched->lookahead, 1u);
  EXPECT_EQ(run.sched->tasks, configs.size());
  EXPECT_GT(run.sched->span_ns, 0u);
}

// A worker exception must surface to the caller, not crash the process.
TEST(ParallelEvaluator, WorkerExceptionPropagates) {
  const auto factory = []() -> std::unique_ptr<Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6148"), simhw::SimOptions{});
  };
  ParallelOptions popts;
  popts.workers = 2;
  ParallelEvaluator evaluator(factory, fast_options(false), popts);
  // "N" configs are TRIAD-shaped: SimDgemmBackend::begin_invocation throws.
  const std::vector<Configuration> configs{triad_config(1024), triad_config(2048)};
  EXPECT_THROW((void)evaluator.run(configs), std::exception);
}

}  // namespace
}  // namespace rooftune::core

#include "core/racing.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/autotuner.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/session.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "fake_backend.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune::core {
namespace {

using testing::FakeBackend;

TunerOptions racing_options() {
  TunerOptions options = technique_options(Technique::CIOuter);
  options.strategy = SearchStrategy::Racing;
  return options;
}

// Bitwise comparison of two racing runs: identical best and per-config
// statistics.  Clock spans are compared to round-off instead: a backend's
// virtual clock accumulates at a different base depending on which
// invocations it ran before, so `end - start` can differ in the last ulp
// between worker assignments even though every sample is bit-equal.
void expect_identical_runs(const TuningRun& lhs, const TuningRun& rhs) {
  ASSERT_EQ(lhs.results.size(), rhs.results.size());
  EXPECT_EQ(lhs.best_index, rhs.best_index);
  EXPECT_EQ(lhs.total_iterations, rhs.total_iterations);
  EXPECT_EQ(lhs.total_invocations, rhs.total_invocations);
  EXPECT_EQ(lhs.pruned_configs, rhs.pruned_configs);
  EXPECT_NEAR(lhs.total_time.value, rhs.total_time.value,
              1e-9 * lhs.total_time.value);
  for (std::size_t i = 0; i < lhs.results.size(); ++i) {
    const ConfigResult& a = lhs.results[i];
    const ConfigResult& b = rhs.results[i];
    EXPECT_EQ(a.config, b.config) << i;
    EXPECT_EQ(a.value(), b.value()) << i;  // bit-equal doubles
    EXPECT_EQ(a.total_iterations, b.total_iterations) << i;
    EXPECT_NEAR(a.total_time.value, b.total_time.value,
                1e-9 * a.total_time.value + 1e-15)
        << i;
    EXPECT_EQ(a.outer_stop, b.outer_stop) << i;
    ASSERT_EQ(a.invocations.size(), b.invocations.size()) << i;
    for (std::size_t j = 0; j < a.invocations.size(); ++j) {
      EXPECT_EQ(a.invocations[j].mean(), b.invocations[j].mean()) << i;
      EXPECT_EQ(a.invocations[j].iterations, b.invocations[j].iterations) << i;
      EXPECT_EQ(a.invocations[j].stop_reason, b.invocations[j].stop_reason) << i;
    }
  }
}

TEST(RacingScheduler, RejectsZeroInvocations) {
  TunerOptions options;
  options.invocations = 0;
  EXPECT_THROW(RacingScheduler{options}, std::invalid_argument);
}

/// A one-parameter space "a" over `values`, in order.
SearchSpace a_space(std::vector<std::int64_t> values) {
  SearchSpace space;
  space.add_range(ParameterRange("a", std::move(values)));
  return space;
}

TEST(RacingScheduler, EliminatesClearLosersAfterOneRound) {
  // Four configurations with distinct zero-variance values: the first round
  // already carries a degenerate iteration-level CI, so every loser dies
  // after exactly one sample batch while the leader runs to its cap.
  FakeBackend backend;
  for (std::int64_t a = 1; a <= 4; ++a) {
    backend.set_value(Configuration({{"a", a}}), 10.0 * static_cast<double>(a));
  }

  TunerOptions options;
  options.invocations = 5;
  options.iterations = 8;
  options.strategy = SearchStrategy::Racing;
  const TuningRun run = Autotuner(a_space({1, 2, 3, 4}), options).run(backend);

  ASSERT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.best_config().at("a"), 4);
  EXPECT_DOUBLE_EQ(run.best_value(), 40.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(run.results[i].invocations.size(), 1u) << i;
    EXPECT_EQ(run.results[i].outer_stop, StopReason::PrunedByBest) << i;
  }
  EXPECT_EQ(run.results[3].invocations.size(), 5u);
  EXPECT_EQ(run.results[3].outer_stop, StopReason::MaxCount);
  EXPECT_EQ(run.total_invocations, 3u + 5u);
}

TEST(RacingScheduler, WarmupTrendDefersRoundOneElimination) {
  // a=1 ramps upward within its first batch (warm-up not settled): round-one
  // elimination must skip it even though its mean is hopeless.  Once it has
  // racing_min_invocations identical invocation means, the invocation-level
  // CI removes it.  a=2 is flat and hopeless: gone after round one.
  FakeBackend backend;
  const Configuration ramp({{"a", 1}});
  const Configuration flat({{"a", 2}});
  const Configuration leader({{"a", 3}});
  backend.set_generator(ramp, [](std::uint64_t iteration) {
    return 50.0 + 10.0 * static_cast<double>(iteration);
  });
  backend.set_value(flat, 30.0);
  backend.set_value(leader, 200.0);

  TunerOptions options;
  options.invocations = 5;
  options.iterations = 8;
  options.strategy = SearchStrategy::Racing;
  const TuningRun run = Autotuner(a_space({1, 2, 3}), options).run(backend);

  ASSERT_EQ(run.results.size(), 3u);
  EXPECT_TRUE(run.results[0].invocations.front().trend_rising);
  EXPECT_EQ(run.results[0].invocations.size(), options.racing_min_invocations);
  EXPECT_EQ(run.results[0].outer_stop, StopReason::PrunedByBest);
  EXPECT_FALSE(run.results[1].invocations.front().trend_rising);
  EXPECT_EQ(run.results[1].invocations.size(), 1u);
  EXPECT_EQ(run.best_config().at("a"), 3);
}

// Acceptance: on the simulated 96-config DGEMM space, racing must land on
// the same optimum as the sequential C+I+O technique with at least 2x fewer
// total iterations and less total tuning time.  (These are the machines
// where C+I+O itself finds a stable optimum; 2695v4's pathological warm-up
// trips both schedules equally — see docs/racing.md.)
TEST(Racing, MatchesExhaustiveCIOWithFarFewerIterations) {
  for (const char* name : {"2650v4", "gold6148", "gold6132"}) {
    const auto machine = simhw::machine_by_name(name);
    simhw::SimOptions sim;
    sim.sockets_used = 1;

    simhw::SimDgemmBackend sequential_backend(machine, sim);
    const TuningRun sequential =
        Autotuner(dgemm_reduced_space(), technique_options(Technique::CIOuter))
            .run(sequential_backend);

    simhw::SimDgemmBackend racing_backend(machine, sim);
    const TuningRun racing =
        Autotuner(dgemm_reduced_space(), racing_options()).run(racing_backend);

    EXPECT_EQ(racing.best_config(), sequential.best_config()) << name;
    EXPECT_LE(2 * racing.total_iterations, sequential.total_iterations) << name;
    EXPECT_LT(racing.total_time.value, sequential.total_time.value) << name;
  }
}

// Acceptance: racing under the ParallelEvaluator (default options: each
// racing block is one epoch, lookahead 1) is bit-identical for 1, 2, and 8
// workers — and matches the serial scheduler.
TEST(Racing, ParallelWaveIsWorkerCountInvariant) {
  const auto factory = [] {
    simhw::SimOptions sim;
    sim.sockets_used = 1;
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6132"), sim);
  };
  const auto configs = dgemm_reduced_space().enumerate();

  auto serial_backend = factory();
  const TuningRun serial =
      Autotuner(dgemm_reduced_space(), racing_options()).run(*serial_backend);

  for (const std::size_t workers : {1u, 2u, 8u}) {
    ParallelOptions popts;
    popts.workers = workers;
    ParallelEvaluator evaluator(factory, racing_options(), popts);
    const TuningRun parallel = evaluator.run(configs);
    expect_identical_runs(serial, parallel);
  }
}

// --- Checkpoint round-tripping of partial racing state -----------------

class RacingSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("rooftune_racing_ckpt_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->line())))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  std::string path_;
};

// 24 configurations: round one spans two racing blocks (kBlock = 16), so an
// interruption inside the second block exercises a genuine mid-round resume.
SearchSpace session_space() {
  SearchSpace space;
  space.add_range(ParameterRange::doubling("n", 500, 4));
  space.add_range(ParameterRange("m", {512, 2048, 4096}));
  space.add_range(ParameterRange("k", {128, 512}));
  return space;
}

// Simulated backend that dies after a fixed number of invocation launches —
// the racing analogue of test_session.cpp's DyingBackend.
class DyingSimBackend final : public Backend {
 public:
  DyingSimBackend(const simhw::MachineSpec& machine, std::uint64_t die_after)
      : inner_(machine, {}), die_after_(die_after) {}

  void begin_invocation(const Configuration& config,
                        std::uint64_t invocation_index) override {
    if (started_ >= die_after_) throw std::runtime_error("killed");
    ++started_;
    inner_.begin_invocation(config, invocation_index);
  }
  Sample run_iteration() override { return inner_.run_iteration(); }
  BatchSample run_batch(std::uint64_t count) override {
    return inner_.run_batch(count);
  }
  void end_invocation() override { inner_.end_invocation(); }
  [[nodiscard]] const util::Clock& clock() const override {
    return inner_.clock();
  }
  [[nodiscard]] std::string metric_name() const override {
    return inner_.metric_name();
  }

 private:
  simhw::SimDgemmBackend inner_;
  std::uint64_t die_after_;
  std::uint64_t started_ = 0;
};

TEST_F(RacingSessionTest, UninterruptedSessionMatchesSchedulerExactly) {
  const auto machine = simhw::machine_by_name("gold6132");

  simhw::SimDgemmBackend straight(machine, {});
  const TuningRun reference =
      Autotuner(session_space(), racing_options()).run(straight);

  simhw::SimDgemmBackend sessioned(machine, {});
  TuningSession session(session_space(), racing_options(), path_);
  const TuningRun run = session.run(sessioned);

  EXPECT_EQ(session.resumed_configs(), 0u);
  EXPECT_FALSE(std::filesystem::exists(path_));  // removed on completion
  expect_identical_runs(reference, run);
}

TEST_F(RacingSessionTest, ResumesMidRoundBitIdentical) {
  const auto machine = simhw::machine_by_name("gold6132");

  simhw::SimDgemmBackend straight(machine, {});
  const TuningRun reference =
      Autotuner(session_space(), racing_options()).run(straight);

  // Die inside round one's second block: the surviving checkpoint holds
  // the 18 invocations completed before the kill.
  {
    DyingSimBackend dying(machine, /*die_after=*/18);
    TuningSession session(session_space(), racing_options(), path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(path_));
  }

  simhw::SimDgemmBackend healthy(machine, {});
  TuningSession session(session_space(), racing_options(), path_);
  const TuningRun resumed = session.run(healthy);

  EXPECT_EQ(session.resumed_configs(), 18u);
  EXPECT_FALSE(std::filesystem::exists(path_));
  expect_identical_runs(reference, resumed);
}

TEST_F(RacingSessionTest, RejectsCheckpointFromDifferentStrategy) {
  // A racing checkpoint must not resume an exhaustive session (and vice
  // versa): strategy is part of the fingerprint.
  {
    DyingSimBackend dying(simhw::machine_by_name("gold6132"), 18);
    TuningSession session(session_space(), racing_options(), path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
  }
  TuningSession exhaustive(session_space(),
                           technique_options(Technique::CIOuter), path_);
  simhw::SimDgemmBackend backend(simhw::machine_by_name("gold6132"), {});
  EXPECT_THROW(static_cast<void>(exhaustive.run(backend)), std::runtime_error);
}

}  // namespace
}  // namespace rooftune::core

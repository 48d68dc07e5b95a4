#include "core/surrogate.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/autotuner.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/session.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "trace/journal.hpp"

namespace rooftune::core {
namespace {

TunerOptions quick_options() {
  TunerOptions options;
  options.invocations = 3;
  options.iterations = 25;
  options.inner_prune = true;
  options.outer_prune = true;
  options.surrogate_seed_budget = 16;
  options.surrogate_confirm_top = 4;
  options.strategy = SearchStrategy::Surrogate;
  return options;
}

/// The paper-default schedule the CLI runs (c+i+o technique), with the
/// surrogate knobs validated against the enlarged grid.
TunerOptions cli_default_surrogate() {
  TunerOptions base;
  base.invocations = 10;
  base.iterations = 200;
  base.timeout = util::Seconds{10.0};
  auto options = technique_options(Technique::CIOuter, base, 0, 2);
  options.random_seed = 2021;  // CLI --seed default; seeds the LHS batch
  options.racing_min_invocations = 3;
  options.strategy = SearchStrategy::Surrogate;
  options.surrogate_seed_budget = 128;
  options.surrogate_confirm_top = 160;
  return options;
}

std::unique_ptr<simhw::SimDgemmBackend> sim_backend() {
  simhw::SimOptions sim;
  sim.seed = 2021;
  return std::make_unique<simhw::SimDgemmBackend>(
      simhw::machine_by_name("2650v4"), sim);
}

// ---------------------------------------------------------------------------
// SurrogateModel

// The feature basis contains every term of a 2-D quadratic, so a ridge fit
// with tiny lambda must reproduce a noiseless quadratic target near-exactly
// — including on points that were not in the training set.
TEST(SurrogateModel, RecoversNoiselessQuadratic) {
  SearchSpace space;
  space.add_range(ParameterRange("a", {0, 1, 2, 3, 4, 5, 6, 7}));
  space.add_range(ParameterRange("b", {0, 1, 2, 3, 4, 5, 6, 7}));

  const auto target = [](double x, double y) {
    // Crosses zero on the grid, which pins the fit to raw scale.
    return 2.0 + 3.0 * x - 2.0 * y - 4.0 * (x - 0.6) * (x - 0.6) +
           1.5 * x * y - 2.5 * y * y;
  };
  std::vector<std::uint64_t> train;
  std::vector<double> values;
  for (std::uint64_t i = 0; i < 64; i += 3) {  // sparse training subset
    const Configuration c = space.config_at(i);
    train.push_back(i);
    values.push_back(target(static_cast<double>(c.at("a")) / 7.0,
                            static_cast<double>(c.at("b")) / 7.0));
  }

  const SurrogateModel model = SurrogateModel::fit(space, train, values);
  EXPECT_FALSE(model.log_scale());  // targets cross zero -> raw-scale fit
  EXPECT_GT(model.train_r2(), 0.999);
  for (std::uint64_t i = 0; i < 64; ++i) {
    const Configuration c = space.config_at(i);
    const double expected = target(static_cast<double>(c.at("a")) / 7.0,
                                   static_cast<double>(c.at("b")) / 7.0);
    EXPECT_NEAR(model.predict(space, i), expected, 1e-4) << i;
  }
}

TEST(SurrogateModel, PositiveTargetsFitInLogSpace) {
  SearchSpace space;
  space.add_range(ParameterRange("a", {1, 2, 4, 8, 16, 32, 64, 128}));
  std::vector<std::uint64_t> train{0, 1, 2, 3, 4, 5, 6, 7};
  std::vector<double> values;
  for (const auto i : train) {
    const double x = static_cast<double>(i) / 7.0;
    values.push_back(100.0 * std::exp(-2.0 * (x - 0.5) * (x - 0.5)));
  }
  const SurrogateModel model = SurrogateModel::fit(space, train, values);
  EXPECT_TRUE(model.log_scale());
  EXPECT_GT(model.train_r2(), 0.999);  // Gaussian is exactly log-quadratic
  for (std::size_t i = 0; i < train.size(); ++i) {
    EXPECT_NEAR(model.predict(space, train[i]), values[i],
                1e-4 * values[i]) << i;
  }
}

// ---------------------------------------------------------------------------
// SurrogateScheduler

TEST(SurrogateScheduler, RejectsBadOptions) {
  TunerOptions zero_seed = quick_options();
  zero_seed.surrogate_seed_budget = 0;
  EXPECT_THROW(SurrogateScheduler{zero_seed}, std::invalid_argument);
  TunerOptions zero_inv = quick_options();
  zero_inv.invocations = 0;
  EXPECT_THROW(SurrogateScheduler{zero_inv}, std::invalid_argument);
}

TEST(SurrogateScheduler, SeedBatchIsCappedAtSpaceCardinality) {
  SearchSpace space;
  space.add_range(ParameterRange("a", {1, 2, 3}));
  const SurrogateScheduler scheduler(quick_options());
  const auto state = scheduler.init(space);
  EXPECT_EQ(state.seed_indices.size(), 3u);
}

// The headline validation (ISSUE acceptance criterion): on the ~116x
// enlarged DGEMM grid the surrogate must land on the exhaustive optimum
// while spending >= 10x fewer kernel invocations.
TEST(SurrogateScheduler, EnlargedGridMatchesExhaustiveOptimumAtTenthCost) {
  const SearchSpace space = dgemm_scaled_space(6);
  ASSERT_EQ(space.cardinality(), 11191u);

  auto exhaustive_options = cli_default_surrogate();
  exhaustive_options.strategy = SearchStrategy::Exhaustive;
  auto exhaustive_backend = sim_backend();
  const TuningRun exhaustive =
      Autotuner(space, exhaustive_options).run(*exhaustive_backend);

  auto surrogate_backend = sim_backend();
  const TuningRun surrogate =
      Autotuner(space, cli_default_surrogate()).run(*surrogate_backend);

  ASSERT_TRUE(surrogate.best_index.has_value());
  EXPECT_EQ(surrogate.best_config(), exhaustive.best_config());
  EXPECT_GE(exhaustive.total_invocations, 10 * surrogate.total_invocations)
      << "exhaustive " << exhaustive.total_invocations << " vs surrogate "
      << surrogate.total_invocations;
  // The whole point: evaluation count decoupled from |space|.
  EXPECT_LT(surrogate.results.size(), space.cardinality() / 10);
}

TEST(SurrogateScheduler, RerunIsBitIdentical) {
  const SearchSpace space = dgemm_scaled_space(2);
  auto b1 = sim_backend();
  auto b2 = sim_backend();
  const TuningRun r1 = Autotuner(space, quick_options()).run(*b1);
  const TuningRun r2 = Autotuner(space, quick_options()).run(*b2);
  ASSERT_EQ(r1.results.size(), r2.results.size());
  EXPECT_EQ(r1.best_index, r2.best_index);
  EXPECT_EQ(r1.total_invocations, r2.total_invocations);
  for (std::size_t i = 0; i < r1.results.size(); ++i) {
    EXPECT_EQ(r1.results[i].config, r2.results[i].config) << i;
    EXPECT_EQ(r1.results[i].value(), r2.results[i].value()) << i;
  }
}

// Trace journals must be byte-identical across reruns AND across 1/2/8
// deterministic workers — the surrogate seed phase always runs in fixed
// waves, so the fitted model (and everything downstream) is a pure function
// of the seed batch.
TEST(SurrogateScheduler, JournalIsByteIdenticalAcrossWorkerCounts) {
  const SearchSpace space = dgemm_scaled_space(2);
  const auto journal_for = [&](std::size_t workers) {
    trace::TraceJournal journal;
    journal.begin_run({"dgemm", "GFLOP/s", "surrogate"});
    TunerOptions options = quick_options();
    options.trace = &journal;
    ParallelOptions popts;
    popts.workers = workers;
    popts.deterministic = true;
    ParallelEvaluator evaluator(
        [] {
          simhw::SimOptions sim;
          sim.seed = 2021;
          return std::make_unique<simhw::SimDgemmBackend>(
              simhw::machine_by_name("2650v4"), sim);
        },
        options, popts);
    const TuningRun run = evaluator.run(space);
    journal.finish_run({run.results.size(), run.pruned_configs,
                        run.total_invocations, run.total_iterations,
                        run.best_index.has_value()
                            ? std::optional<double>(run.best_value())
                            : std::nullopt,
                        /*scheduler=*/std::nullopt});
    return journal.str();
  };

  const std::string one = journal_for(1);
  EXPECT_FALSE(one.empty());
  EXPECT_NE(one.find("surrogate-fit"), std::string::npos);
  EXPECT_NE(one.find("prune-batch"), std::string::npos);
  EXPECT_EQ(one, journal_for(1));  // rerun
  EXPECT_EQ(one, journal_for(2));
  EXPECT_EQ(one, journal_for(8));
}

// The parallel surrogate freezes the pruning incumbent per wave, so its
// per-config statistics are a pure function of the schedule — the whole
// TuningRun must be bit-identical for any worker count (the serial
// Autotuner driver may differ: its incumbent updates config-by-config,
// changing which invocations the pruner truncates).
TEST(SurrogateScheduler, ParallelRunIsBitIdenticalAcrossWorkerCounts) {
  const SearchSpace space = dgemm_scaled_space(2);
  const auto run_with = [&](std::size_t workers) {
    ParallelOptions popts;
    popts.workers = workers;
    ParallelEvaluator evaluator(
        [] {
          simhw::SimOptions sim;
          sim.seed = 2021;
          return std::make_unique<simhw::SimDgemmBackend>(
              simhw::machine_by_name("2650v4"), sim);
        },
        quick_options(), popts);
    return evaluator.run(space);
  };
  const TuningRun one = run_with(1);
  const TuningRun four = run_with(4);
  ASSERT_TRUE(one.best_index.has_value());
  ASSERT_EQ(one.results.size(), four.results.size());
  EXPECT_EQ(one.best_index, four.best_index);
  EXPECT_EQ(one.total_invocations, four.total_invocations);
  EXPECT_EQ(one.total_iterations, four.total_iterations);
  for (std::size_t i = 0; i < one.results.size(); ++i) {
    EXPECT_EQ(one.results[i].config, four.results[i].config) << i;
    EXPECT_EQ(one.results[i].value(), four.results[i].value()) << i;
  }
}

TEST(SurrogateScheduler, RunVectorOverloadIsRejected) {
  ParallelEvaluator evaluator(
      [] {
        return std::make_unique<simhw::SimDgemmBackend>(
            simhw::machine_by_name("2650v4"), simhw::SimOptions{});
      },
      quick_options());
  EXPECT_THROW((void)evaluator.run(std::vector<Configuration>{
                   dgemm_config(512, 512, 64)}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume

/// Forwards to a real simulated backend but throws after `die_after`
/// invocation starts — a deterministic stand-in for a SLURM kill.
class DyingSimBackend final : public Backend {
 public:
  DyingSimBackend(std::unique_ptr<Backend> inner, std::uint64_t die_after)
      : inner_(std::move(inner)), die_after_(die_after) {}

  void begin_invocation(const Configuration& config,
                        std::uint64_t invocation_index) override {
    if (started_ >= die_after_) throw std::runtime_error("killed");
    ++started_;
    inner_->begin_invocation(config, invocation_index);
  }
  Sample run_iteration() override { return inner_->run_iteration(); }
  BatchSample run_batch(std::uint64_t count) override {
    return inner_->run_batch(count);
  }
  void end_invocation() override { inner_->end_invocation(); }
  [[nodiscard]] const util::Clock& clock() const override {
    return inner_->clock();
  }
  [[nodiscard]] std::optional<InvocationTiming> last_invocation_timing()
      const override {
    return inner_->last_invocation_timing();
  }
  [[nodiscard]] std::optional<double> flops_per_iteration() const override {
    return inner_->flops_per_iteration();
  }
  [[nodiscard]] std::optional<double> bytes_per_iteration() const override {
    return inner_->bytes_per_iteration();
  }
  [[nodiscard]] std::string metric_name() const override {
    return inner_->metric_name();
  }
  [[nodiscard]] std::uint64_t started() const { return started_; }

 private:
  std::unique_ptr<Backend> inner_;
  std::uint64_t die_after_;
  std::uint64_t started_ = 0;
};

class SurrogateSessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("rooftune_surrogate_ckpt_" +
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

  /// Uninterrupted reference, plus the invocation count of its seed phase
  /// (the first seed_budget results of the merged run).
  TuningRun reference_run(const SearchSpace& space) {
    auto backend = sim_backend();
    return Autotuner(space, quick_options()).run(*backend);
  }

  void expect_bit_identical(const TuningRun& a, const TuningRun& b) {
    ASSERT_EQ(a.results.size(), b.results.size());
    EXPECT_EQ(a.best_index, b.best_index);
    EXPECT_EQ(a.total_invocations, b.total_invocations);
    EXPECT_EQ(a.total_iterations, b.total_iterations);
    EXPECT_EQ(a.pruned_configs, b.pruned_configs);
    EXPECT_EQ(a.total_time.value, b.total_time.value);  // bit-equal doubles
    for (std::size_t i = 0; i < a.results.size(); ++i) {
      EXPECT_EQ(a.results[i].config, b.results[i].config) << i;
      EXPECT_EQ(a.results[i].value(), b.results[i].value()) << i;
      EXPECT_EQ(a.results[i].invocations.size(), b.results[i].invocations.size())
          << i;
      EXPECT_EQ(a.results[i].total_iterations, b.results[i].total_iterations)
          << i;
    }
  }

  /// Kill the session after `die_after` invocations, then resume with a
  /// healthy backend and demand bit-identity with the uninterrupted run.
  void run_interrupted_and_compare(const SearchSpace& space,
                                   std::uint64_t die_after) {
    const TuningRun reference = reference_run(space);
    ASSERT_GT(reference.total_invocations, die_after)
        << "die_after must interrupt the run";

    {
      DyingSimBackend dying(sim_backend(), die_after);
      TuningSession session(space, quick_options(), path_);
      EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
      EXPECT_TRUE(std::filesystem::exists(path_));
    }

    auto healthy = sim_backend();
    TuningSession session(space, quick_options(), path_);
    const TuningRun resumed = session.run(*healthy);
    EXPECT_GT(session.resumed_configs(), 0u);
    expect_bit_identical(reference, resumed);
    EXPECT_FALSE(std::filesystem::exists(path_));
  }

  std::string path_;
};

TEST_F(SurrogateSessionTest, FreshSessionMatchesAutotuner) {
  const SearchSpace space = dgemm_scaled_space(2);
  const TuningRun reference = reference_run(space);
  auto backend = sim_backend();
  TuningSession session(space, quick_options(), path_);
  const TuningRun run = session.run(*backend);
  EXPECT_EQ(session.resumed_configs(), 0u);
  expect_bit_identical(reference, run);
}

TEST_F(SurrogateSessionTest, ResumesMidSeedBitIdentical) {
  const SearchSpace space = dgemm_scaled_space(2);
  // 16 seed configs x up to 3 invocations: invocation 10 is mid-seed.
  run_interrupted_and_compare(space, 10);
}

TEST_F(SurrogateSessionTest, ResumesMidConfirmBitIdentical) {
  const SearchSpace space = dgemm_scaled_space(2);
  const TuningRun reference = reference_run(space);
  // Seed invocations = everything before the confirm entries at the tail.
  std::uint64_t seed_invocations = 0;
  const std::size_t seeds = quick_options().surrogate_seed_budget;
  ASSERT_GT(reference.results.size(), seeds);
  for (std::size_t i = 0; i < seeds; ++i) {
    seed_invocations += reference.results[i].invocations.size();
  }
  ASSERT_GT(reference.total_invocations, seed_invocations + 2);
  run_interrupted_and_compare(space, seed_invocations + 2);
}

TEST_F(SurrogateSessionTest, ConfirmResumeDoesNotRefit) {
  const SearchSpace space = dgemm_scaled_space(2);
  const TuningRun reference = reference_run(space);
  std::uint64_t seed_invocations = 0;
  for (std::size_t i = 0; i < quick_options().surrogate_seed_budget; ++i) {
    seed_invocations += reference.results[i].invocations.size();
  }
  {
    DyingSimBackend dying(sim_backend(), seed_invocations + 1);
    TuningSession session(space, quick_options(), path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
  }
  // The resumed run may only execute confirm-phase work: every seed
  // invocation, and the one confirm invocation the dying run completed,
  // come from the checkpoint; the model is refitted from the logged seed
  // results, never re-measured.
  DyingSimBackend counting(sim_backend(), ~0ull);
  TuningSession session(space, quick_options(), path_);
  const TuningRun resumed = session.run(counting);
  expect_bit_identical(reference, resumed);
  EXPECT_EQ(counting.started(),
            reference.total_invocations - seed_invocations - 1);
}

TEST_F(SurrogateSessionTest, SurrogateKnobsChangeTheFingerprint) {
  const SearchSpace space = dgemm_scaled_space(2);
  const TuningSession a(space, quick_options(), path_);
  TunerOptions other = quick_options();
  other.surrogate_seed_budget = 17;
  const TuningSession b(space, other, path_);
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  TunerOptions seeded = quick_options();
  seeded.random_seed = 99;  // moves the LHS seed batch -> different search
  const TuningSession c(space, seeded, path_);
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  // Exhaustive fingerprints must not move with the surrogate knobs (or the
  // seed, in Forward order): existing checkpoints stay resumable.
  TunerOptions ex = quick_options();
  ex.strategy = SearchStrategy::Exhaustive;
  TunerOptions ex_other = ex;
  ex_other.surrogate_seed_budget = 17;
  ex_other.random_seed = 99;
  EXPECT_EQ(TuningSession(space, ex, path_).fingerprint(),
            TuningSession(space, ex_other, path_).fingerprint());
}

}  // namespace
}  // namespace rooftune::core

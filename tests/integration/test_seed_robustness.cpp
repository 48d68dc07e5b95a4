// Seed-robustness sweeps: the reproduction must not hinge on one lucky
// noise realization.  Across independent seeds, the autotuner must keep
// finding the paper's Table V dimensions and keep the < 2 % accuracy claim.

#include <gtest/gtest.h>

#include "core/autotuner.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune {
namespace {

core::TuningRun run_seeded(const std::string& machine, int sockets,
                           core::Technique technique, std::uint64_t seed,
                           std::uint64_t min_count) {
  simhw::SimOptions sim;
  sim.sockets_used = sockets;
  sim.seed = seed;
  simhw::SimDgemmBackend backend(simhw::machine_by_name(machine), sim);
  const auto options = core::technique_options(technique, {}, 0, min_count);
  return core::Autotuner(core::dgemm_reduced_space(), options).run(backend);
}

struct SeedCase {
  const char* machine;
  int sockets;
  std::int64_t n, m, k;
  std::uint64_t min_count;
};

// Names the ctest case after the machine; the default printer would dump
// the struct's bytes, pointer included, which change from run to run.
void PrintTo(const SeedCase& c, std::ostream* os) {
  *os << c.machine << "-S" << c.sockets;
}

class SeedSweep : public ::testing::TestWithParam<SeedCase> {};

TEST_P(SeedSweep, ArgmaxStableAcrossSeeds) {
  const auto& c = GetParam();
  int hits = 0;
  constexpr int seeds = 7;
  for (std::uint64_t seed = 3000; seed < 3000 + seeds; ++seed) {
    const auto run =
        run_seeded(c.machine, c.sockets, core::Technique::CIOuter, seed, c.min_count);
    const auto& best = run.best_config();
    if (best.at("n") == c.n && best.at("m") == c.m && best.at("k") == c.k) ++hits;
  }
  // The paper's optimum must win in (almost) every noise realization; allow
  // one noise-flipped outlier out of seven.
  EXPECT_GE(hits, seeds - 1) << c.machine << " S" << c.sockets;
}

INSTANTIATE_TEST_SUITE_P(
    TableV, SeedSweep,
    ::testing::Values(SeedCase{"2650v4", 1, 1000, 4096, 128, 2},
                      SeedCase{"2650v4", 2, 2000, 2048, 64, 2},
                      SeedCase{"gold6132", 2, 4000, 512, 128, 2},
                      SeedCase{"gold6148", 1, 4000, 512, 128, 2},
                      SeedCase{"2695v4", 1, 2000, 4096, 128, 100}));

TEST(SeedSweep, AccuracyClaimHoldsAcrossSeeds) {
  // abstract: "error of less than 2 %" — checked across 5 seeds on a
  // well-behaved machine for the headline technique.
  for (std::uint64_t seed = 4000; seed < 4005; ++seed) {
    const double reference =
        run_seeded("gold6148", 1, core::Technique::Default, seed, 2).best_value();
    const double optimized =
        run_seeded("gold6148", 1, core::Technique::CIOuter, seed, 2).best_value();
    EXPECT_NEAR(optimized, reference, 0.02 * reference) << "seed " << seed;
  }
}

TEST(SeedSweep, SpeedupMagnitudeStableAcrossSeeds) {
  for (std::uint64_t seed = 5000; seed < 5003; ++seed) {
    const double t_default =
        run_seeded("2650v4", 1, core::Technique::Default, seed, 2).total_time.value;
    const double t_cio =
        run_seeded("2650v4", 1, core::Technique::CIOuter, seed, 2).total_time.value;
    const double speedup = t_default / t_cio;
    EXPECT_GT(speedup, 40.0) << "seed " << seed;
    EXPECT_LT(speedup, 400.0) << "seed " << seed;
  }
}

TEST(SeedSweep, SameSeedBitIdentical) {
  const auto a = run_seeded("gold6132", 1, core::Technique::CIOuter, 9999, 2);
  const auto b = run_seeded("gold6132", 1, core::Technique::CIOuter, 9999, 2);
  ASSERT_EQ(a.results.size(), b.results.size());
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.results[i].value(), b.results[i].value());
  }
  EXPECT_DOUBLE_EQ(a.total_time.value, b.total_time.value);
}

}  // namespace
}  // namespace rooftune

// End-to-end reproduction checks: the paper's headline claims, asserted
// against the simulated machines.  The bench/ binaries regenerate the full
// tables; these tests pin the *shape* so regressions are caught by ctest.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "core/autotuner.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune {
namespace {

core::TuningRun run_technique(const std::string& machine, int sockets,
                              core::Technique technique,
                              std::uint64_t min_count = 2) {
  simhw::SimOptions sim;
  sim.sockets_used = sockets;
  simhw::SimDgemmBackend backend(simhw::machine_by_name(machine), sim);
  const auto options = core::technique_options(technique, {}, 0, min_count);
  const core::Autotuner tuner(core::dgemm_reduced_space(), options);
  return tuner.run(backend);
}

// Table V: the autotuner recovers the paper's optimal dimensions.  The
// 2695 v4 needs the min-count=100 guard, exactly as in the paper (§VI-C).
struct TableVCase {
  const char* machine;
  int sockets;
  std::int64_t n, m, k;
  std::uint64_t min_count;
};

// Names the ctest case after the machine; the default printer would dump
// the struct's bytes, pointer included, which change from run to run.
void PrintTo(const TableVCase& c, std::ostream* os) {
  *os << c.machine << "-S" << c.sockets;
}

class TableVReproduction : public ::testing::TestWithParam<TableVCase> {};

TEST_P(TableVReproduction, FindsPaperOptimum) {
  const auto& c = GetParam();
  const auto run =
      run_technique(c.machine, c.sockets, core::Technique::CIOuter, c.min_count);
  EXPECT_EQ(run.best_config().at("n"), c.n) << run.best_config().to_string();
  EXPECT_EQ(run.best_config().at("m"), c.m) << run.best_config().to_string();
  EXPECT_EQ(run.best_config().at("k"), c.k) << run.best_config().to_string();
}

INSTANTIATE_TEST_SUITE_P(
    PaperMachines, TableVReproduction,
    ::testing::Values(TableVCase{"2650v4", 1, 1000, 4096, 128, 2},
                      TableVCase{"2650v4", 2, 2000, 2048, 64, 2},
                      TableVCase{"gold6132", 1, 1000, 4096, 128, 2},
                      TableVCase{"gold6132", 2, 4000, 512, 128, 2},
                      TableVCase{"gold6148", 1, 4000, 512, 128, 2},
                      TableVCase{"gold6148", 2, 4000, 1024, 128, 2},
                      TableVCase{"2695v4", 1, 2000, 4096, 128, 100},
                      TableVCase{"2695v4", 2, 4000, 2048, 128, 100}));

// Headline accuracy claim: every optimized technique reports the same
// benchmark result as Default within < 2 % (abstract, §VI-C) — on the
// machines without the 2695 v4 warm-up pathology.
TEST(PaperClaims, OptimizedTechniquesWithin2PercentOfDefault) {
  for (const char* machine : {"2650v4", "gold6132", "gold6148"}) {
    for (int sockets : {1, 2}) {
      const double reference =
          run_technique(machine, sockets, core::Technique::Default).best_value();
      for (const auto technique :
           {core::Technique::Confidence, core::Technique::CInner,
            core::Technique::CInnerReverse, core::Technique::CIOuter,
            core::Technique::CIOuterReverse}) {
        const double value = run_technique(machine, sockets, technique).best_value();
        EXPECT_NEAR(value, reference, 0.02 * reference)
            << machine << " S" << sockets << " "
            << core::technique_name(technique);
      }
    }
  }
}

// On the 2695 v4, the default min-count=2 degrades the result and the
// min-count=100 guard restores it (§VI-C, Table IX).
TEST(PaperClaims, MinCount100Fixes2695v4) {
  const double reference =
      run_technique("2695v4", 1, core::Technique::Default).best_value();
  const double degraded =
      run_technique("2695v4", 1, core::Technique::CInner, 2).best_value();
  const double fixed =
      run_technique("2695v4", 1, core::Technique::CInner, 100).best_value();
  EXPECT_LT(degraded, 0.95 * reference);   // visibly wrong (paper: 467 vs 590)
  EXPECT_NEAR(fixed, reference, 0.02 * reference);  // restored (paper: 587)
}

// Speedup ordering (Tables VIII-XI): Default is slowest; Confidence gives a
// moderate speedup; C+Inner much more; C+I+Outer the most among CI-based
// techniques; reversal slows the pruned searches down.
TEST(PaperClaims, SpeedupOrderingMatchesTables) {
  std::map<core::Technique, double> time;
  for (const auto technique : core::automatic_techniques()) {
    double total = 0.0;
    for (int sockets : {1, 2}) {
      total += run_technique("2650v4", sockets, technique).total_time.value;
    }
    time[technique] = total;
  }

  EXPECT_GT(time[core::Technique::Default], time[core::Technique::Confidence]);
  EXPECT_GT(time[core::Technique::Confidence], time[core::Technique::CInner]);
  EXPECT_GT(time[core::Technique::CInner], time[core::Technique::CIOuter]);
  // Reversal pays: expensive configurations run before an incumbent exists.
  EXPECT_GT(time[core::Technique::CInnerReverse], time[core::Technique::CInner]);
  EXPECT_GT(time[core::Technique::CIOuterReverse], time[core::Technique::CIOuter]);
  // Single is the fastest of all (and the least accurate).
  EXPECT_LT(time[core::Technique::Single], time[core::Technique::CIOuter]);

  // The headline: C+I+Outer is around two orders of magnitude faster than
  // Default (paper: 116.33x on this machine; accept a generous band).
  const double speedup = time[core::Technique::Default] / time[core::Technique::CIOuter];
  EXPECT_GT(speedup, 40.0);
  EXPECT_LT(speedup, 400.0);
}

// The Confidence-only speedup is modest (paper: 2.9-5.2x across machines).
TEST(PaperClaims, ConfidenceSpeedupIsModest) {
  for (const char* machine : {"2650v4", "gold6148"}) {
    double t_default = 0.0, t_confidence = 0.0;
    for (int sockets : {1, 2}) {
      t_default += run_technique(machine, sockets, core::Technique::Default)
                       .total_time.value;
      t_confidence += run_technique(machine, sockets, core::Technique::Confidence)
                          .total_time.value;
    }
    const double speedup = t_default / t_confidence;
    EXPECT_GT(speedup, 1.5) << machine;
    EXPECT_LT(speedup, 12.0) << machine;
  }
}

// "Single" underestimates performance (paper: -2 % to -26 % depending on
// machine warm-up behaviour).
TEST(PaperClaims, SingleUnderestimates) {
  for (const char* machine : {"gold6132", "gold6148", "2695v4"}) {
    const double reference =
        run_technique(machine, 1, core::Technique::Default).best_value();
    const double single =
        run_technique(machine, 1, core::Technique::Single).best_value();
    EXPECT_LT(single, reference) << machine;
  }
}

// §VI-A: Intel's published square configuration reaches only ~52-56 % of
// peak; the autotuned configuration far exceeds it.
TEST(PaperClaims, SquareConfigurationUnderperforms) {
  simhw::SimOptions sim;
  sim.sockets_used = 2;
  simhw::SimDgemmBackend backend(simhw::machine_by_name("gold6132"), sim);
  const auto square = core::run_configuration(
      backend, core::dgemm_config(1000, 1000, 1000),
      core::technique_options(core::Technique::Default), {});
  const double peak = simhw::machine_by_name("gold6132").theoretical_flops(2).value;
  EXPECT_NEAR(square.value() / peak, 0.5569, 0.04);

  const auto tuned = run_technique("gold6132", 2, core::Technique::Default);
  EXPECT_GT(tuned.best_value() / square.value(), 1.25);
}

// §VII / future work: with the trend guard enabled, the 2695 v4 warm-up
// configurations survive pruning even with min-count=2.
TEST(FutureWork, TrendGuardRescues2695v4) {
  simhw::SimOptions sim;
  sim.sockets_used = 1;
  simhw::SimDgemmBackend backend(simhw::machine_by_name("2695v4"), sim);
  auto options = core::technique_options(core::Technique::CInner, {}, 0, 2);
  options.trend_guard = true;
  const core::Autotuner tuner(core::dgemm_reduced_space(), options);
  const auto run = tuner.run(backend);

  const double reference =
      run_technique("2695v4", 1, core::Technique::Default).best_value();
  EXPECT_GT(run.best_value(), 0.95 * reference);
}

}  // namespace
}  // namespace rooftune

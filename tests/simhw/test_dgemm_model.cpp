#include "simhw/dgemm_model.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/spaces.hpp"

namespace rooftune::simhw {
namespace {

// Table V: the surface's argmax over the paper's 96-point grid must be the
// reported optimal dimensions, and Table IV: the efficiency there must match
// the reported utilization.
struct AnchorCase {
  const char* machine;
  int sockets;
  std::int64_t n, m, k;
  double peak_eff;
};

// Names the ctest case after the machine; the default printer would dump
// the struct's bytes, pointer included, which change from run to run.
void PrintTo(const AnchorCase& c, std::ostream* os) {
  *os << c.machine << "-S" << c.sockets;
}

class SurfaceAnchorTest : public ::testing::TestWithParam<AnchorCase> {};

TEST_P(SurfaceAnchorTest, GridArgmaxMatchesTableV) {
  const auto& c = GetParam();
  const DgemmSurface surface(machine_by_name(c.machine), c.sockets);

  double best = -1.0;
  core::Configuration best_config;
  for (const auto& config : core::dgemm_reduced_space().enumerate()) {
    const double eff =
        surface.efficiency(config.at("n"), config.at("m"), config.at("k"));
    if (eff > best) {
      best = eff;
      best_config = config;
    }
  }
  EXPECT_EQ(best_config.at("n"), c.n) << best_config.to_string();
  EXPECT_EQ(best_config.at("m"), c.m) << best_config.to_string();
  EXPECT_EQ(best_config.at("k"), c.k) << best_config.to_string();
  // Table IV utilization within the +/-0.5 % surface texture.
  EXPECT_NEAR(best, c.peak_eff, 0.006);
}

INSTANTIATE_TEST_SUITE_P(
    PaperTableV, SurfaceAnchorTest,
    ::testing::Values(AnchorCase{"2650v4", 1, 1000, 4096, 128, 0.9676},
                      AnchorCase{"2650v4", 2, 2000, 2048, 64, 0.9156},
                      AnchorCase{"2695v4", 1, 2000, 4096, 128, 0.9806},
                      AnchorCase{"2695v4", 2, 4000, 2048, 128, 0.9194},
                      AnchorCase{"gold6132", 1, 1000, 4096, 128, 0.8720},
                      AnchorCase{"gold6132", 2, 4000, 512, 128, 0.7513},
                      AnchorCase{"gold6148", 1, 4000, 512, 128, 0.9259},
                      AnchorCase{"gold6148", 2, 4000, 1024, 128, 0.7836}));

TEST(DgemmSurface, IntelSquareChoiceIsPoor) {
  // §VI-A: n=m=k=1000 on gold6132 dual-socket reads ~55.7 % of peak —
  // Intel's published square configuration badly underuses the machine.
  const DgemmSurface surface(machine_by_name("gold6132"), 2);
  EXPECT_NEAR(surface.efficiency(1000, 1000, 1000), 0.5569, 0.03);
  // And the autotuned anchor beats it by the paper's ~35 % margin.
  EXPECT_GT(surface.efficiency(4000, 512, 128) / surface.efficiency(1000, 1000, 1000),
            1.25);
}

TEST(DgemmSurface, MeanGflopsMatchesTableIV) {
  const DgemmSurface s1(machine_by_name("2650v4"), 1);
  EXPECT_NEAR(s1.mean_gflops(1000, 4096, 128).value, 408.71, 3.0);
  const DgemmSurface s2(machine_by_name("2650v4"), 2);
  EXPECT_NEAR(s2.mean_gflops(2000, 2048, 64).value, 773.51, 5.0);
  const DgemmSurface g2(machine_by_name("gold6148"), 2);
  EXPECT_NEAR(g2.mean_gflops(4000, 1024, 128).value, 2407.33, 15.0);
}

TEST(DgemmSurface, SmallDimensionsPerformPoorly) {
  // §IV-A: "low values for n, m and k performed poorly" — the reason the
  // initial 539-point space was narrowed.
  const DgemmSurface surface(machine_by_name("2650v4"), 1);
  EXPECT_LT(surface.efficiency(64, 64, 2), 0.15);
  EXPECT_LT(surface.efficiency(64, 64, 2), surface.efficiency(512, 512, 64));
  EXPECT_LT(surface.efficiency(128, 128, 8), 0.5 * surface.efficiency(1000, 4096, 128));
}

TEST(DgemmSurface, NonSquareBeatsSquare) {
  // §IV-A: "in most cases non-square matrices yield significantly higher
  // performance compared to square matrices."
  for (const char* name : {"2650v4", "2695v4", "gold6132", "gold6148"}) {
    const DgemmSurface surface(machine_by_name(name), 1);
    const auto& a = surface.anchor();
    const double square = surface.efficiency(1024, 1024, 1024);
    const double tuned = surface.efficiency(a.n, a.m, a.k);
    EXPECT_GT(tuned, square * 1.05) << name;
  }
}

TEST(DgemmSurface, DeterministicAcrossInstances) {
  const DgemmSurface a(machine_by_name("gold6132"), 1);
  const DgemmSurface b(machine_by_name("gold6132"), 1);
  for (std::int64_t k : {64, 256, 2048}) {
    EXPECT_DOUBLE_EQ(a.efficiency(1000, 1024, k), b.efficiency(1000, 1024, k));
  }
}

TEST(DgemmSurface, EfficiencyBounded) {
  const DgemmSurface surface(machine_by_name("gold6148"), 2);
  for (const auto& config : core::dgemm_initial_space().enumerate()) {
    const double eff =
        surface.efficiency(config.at("n"), config.at("m"), config.at("k"));
    EXPECT_GT(eff, 0.0);
    EXPECT_LE(eff, 0.995);
  }
}

TEST(DgemmSurface, DifferentMachinesDiffer) {
  const DgemmSurface a(machine_by_name("2650v4"), 1);
  const DgemmSurface b(machine_by_name("gold6132"), 1);
  EXPECT_NE(a.efficiency(2000, 2048, 256), b.efficiency(2000, 2048, 256));
}

TEST(DgemmSurface, RejectsBadArguments) {
  EXPECT_THROW(DgemmSurface(machine_by_name("2650v4"), 0), std::invalid_argument);
  EXPECT_THROW(DgemmSurface(machine_by_name("2650v4"), 3), std::invalid_argument);
  const DgemmSurface surface(machine_by_name("2650v4"), 1);
  EXPECT_THROW(static_cast<void>(surface.efficiency(0, 10, 10)), std::invalid_argument);
  EXPECT_THROW(dgemm_anchor("unknown", 1), std::invalid_argument);
}

}  // namespace
}  // namespace rooftune::simhw

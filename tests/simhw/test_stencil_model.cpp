// The stencil response surface: tiered traffic model (L1/L2 spill
// penalties), the cache-driven ridge in the tiling landscape, argument
// validation, and the backend's counter signatures agreeing with
// analytic_intensity.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>

#include "core/config.hpp"
#include "core/spaces.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "simhw/stencil_model.hpp"

namespace rooftune::simhw {
namespace {

constexpr double kOiTolerance = 0.05;

StencilSurface surface_2650(std::int64_t grid_n = 4096) {
  return StencilSurface(machine_by_name("2650v4"), 1, grid_n);
}

TEST(StencilSurface, RejectsBadArguments) {
  EXPECT_THROW(StencilSurface(machine_by_name("2650v4"), 1, 4),
               std::invalid_argument);
  const auto surface = surface_2650();
  EXPECT_THROW(static_cast<void>(surface.mean_gflops(0, 64, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(surface.mean_gflops(64, 0, 1)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(surface.mean_gflops(64, 64, 3)), std::invalid_argument);
}

TEST(StencilSurface, TrafficTiersTrackTheCaches) {
  const auto surface = surface_2650();
  const double n2 = static_cast<double>(surface.grid_n()) *
                    static_cast<double>(surface.grid_n());
  // A small tile keeps all reuse: compulsory 16 B/point only.
  EXPECT_DOUBLE_EQ(surface.sweep_bytes(16, 64), 16.0 * n2);
  // Rows too wide for L1 (tile still inside L2): the top neighbour is
  // re-fetched, +8 B/point.
  EXPECT_DOUBLE_EQ(surface.sweep_bytes(8, 2048), 24.0 * n2);
  // A tall tile past L2 with L1-resident rows streams its halo, +4 B/point.
  EXPECT_DOUBLE_EQ(surface.sweep_bytes(1024, 256), 20.0 * n2);
  // Both spills stack.
  EXPECT_DOUBLE_EQ(surface.sweep_bytes(1024, 2048), 28.0 * n2);
  EXPECT_DOUBLE_EQ(surface.sweep_flops(), 6.0 * n2);
  EXPECT_DOUBLE_EQ(surface.grid_bytes(), 16.0 * n2);
}

TEST(StencilSurface, RidgeBeatsTheCorners) {
  // The optimum sits where rows fit L1 and the tile fits L2; degenerate
  // corner tilings collapse.  Matches the CLI landscape on 2650v4.
  const auto surface = surface_2650();
  const double ridge = surface.mean_gflops(64, 256, 4);
  EXPECT_GT(ridge, 2.0 * surface.mean_gflops(8, 4, 1));
  EXPECT_GT(ridge, surface.mean_gflops(1024, 512, 8));
  // Unroll peaks at 4: register pressure costs at 8, overhead at 1.
  EXPECT_GT(surface.mean_gflops(64, 256, 4), surface.mean_gflops(64, 256, 1));
  EXPECT_GT(surface.mean_gflops(64, 256, 4), surface.mean_gflops(64, 256, 8));
}

TEST(StencilSurface, GridSizePicksTheBandwidthRegime) {
  // A resident grid tunes like a cache benchmark (fraction < 1), the
  // default 4096^2 grid against DRAM (fraction 1).
  const auto small = surface_2650(256);
  const auto large = surface_2650(4096);
  EXPECT_LT(small.dram_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(large.dram_fraction(), 1.0);
  EXPECT_GT(small.mean_gflops(64, 256, 4), 2.0 * large.mean_gflops(64, 256, 4));
}

TEST(StencilSurface, DeterministicAcrossInstances) {
  const auto a = surface_2650();
  const auto b = surface_2650();
  for (const std::int64_t ti : {8, 64, 1024}) {
    for (const std::int64_t tj : {4, 256, 512}) {
      EXPECT_EQ(a.mean_gflops(ti, tj, 2), b.mean_gflops(ti, tj, 2));
    }
  }
}

SimStencilBackend stencil_backend(bool counter_model,
                                  std::int64_t grid_n = 4096) {
  SimOptions options;
  options.sockets_used = 1;
  options.seed = 2021;
  options.counter_model = counter_model;
  return SimStencilBackend(machine_by_name("2650v4"), options, grid_n);
}

TEST(SimStencilBackend, MeasuredOiMatchesAnalyticIntensity) {
  auto backend = stencil_backend(/*counter_model=*/true);
  const core::Configuration config({{"ti", 64}, {"tj", 256}, {"unroll", 4}});
  const int iterations = 4;
  backend.begin_invocation(config, 0);
  for (int i = 0; i < iterations; ++i) backend.run_iteration();
  backend.end_invocation();
  const auto sample = backend.last_invocation_counters();
  ASSERT_TRUE(sample.has_value());
  ASSERT_GT(sample->llc_misses, 0u);
  const auto predicted = backend.analytic_intensity(config);
  ASSERT_TRUE(predicted.has_value());
  const double flops = *backend.flops_per_iteration() * iterations;
  const double oi = flops / (64.0 * static_cast<double>(sample->llc_misses));
  EXPECT_NEAR(oi, *predicted, kOiTolerance * *predicted);
}

TEST(SimStencilBackend, RateStaysUnderCounterRoofline) {
  const auto machine = machine_by_name("2650v4");
  const double bw = machine.theoretical_bandwidth(1).value;
  for (const std::int64_t grid_n : {1024, 4096}) {
    auto backend = stencil_backend(/*counter_model=*/true, grid_n);
    const core::Configuration config({{"ti", 8}, {"tj", 4}, {"unroll", 1}});
    backend.begin_invocation(config, 0);
    const auto sample = backend.run_iteration();
    backend.end_invocation();
    const auto oi = backend.analytic_intensity(config);
    ASSERT_TRUE(oi.has_value());
    EXPECT_LE(sample.value, bw * *oi * 1.01) << "grid_n=" << grid_n;
  }
}

TEST(SimStencilBackend, AnalyticIntensityRejectsInvalidConfigs) {
  auto backend = stencil_backend(/*counter_model=*/true);
  EXPECT_FALSE(backend
                   .analytic_intensity(core::Configuration(
                       {{"ti", 64}, {"tj", 256}, {"unroll", 3}}))
                   .has_value());
  EXPECT_FALSE(
      backend.analytic_intensity(core::Configuration({{"n", 64}})).has_value());
}

TEST(StencilSpace, ConstraintPrunesWideUnrolls) {
  const auto space = core::stencil_space();
  // 8 ti x 8 tj x 4 unroll = 256, minus the 8 (tj=4, unroll=8) combinations.
  EXPECT_EQ(space.cartesian_cardinality(), 256u);
  EXPECT_EQ(space.cardinality(), 248u);
}

}  // namespace
}  // namespace rooftune::simhw

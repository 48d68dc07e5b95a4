#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "roofline/advisor.hpp"
#include "roofline/builder.hpp"
#include "roofline/plot.hpp"

namespace rooftune::roofline {
namespace {

TEST(ModelJson, RoundTripsSimulatedModel) {
  BuilderOptions options;
  options.prune_min_count = 10;
  const auto model = build_simulated(simhw::machine_by_name("2650v4"), options);
  const auto restored = model_from_json(to_json(model));

  EXPECT_EQ(restored.machine_name, model.machine_name);
  ASSERT_EQ(restored.compute().size(), model.compute().size());
  ASSERT_EQ(restored.memory().size(), model.memory().size());
  for (std::size_t i = 0; i < model.compute().size(); ++i) {
    EXPECT_EQ(restored.compute()[i].name, model.compute()[i].name);
    EXPECT_NEAR(restored.compute()[i].value.value, model.compute()[i].value.value,
                1e-6);
    EXPECT_EQ(restored.compute()[i].best_config, model.compute()[i].best_config);
    ASSERT_TRUE(restored.compute()[i].utilization().has_value());
    EXPECT_NEAR(*restored.compute()[i].utilization(),
                *model.compute()[i].utilization(), 1e-9);
  }
  // The restored model answers roofline queries identically.
  EXPECT_NEAR(restored.attainable(util::Intensity{1.0}, 0, 1).value,
              model.attainable(util::Intensity{1.0}, 0, 1).value, 1e-6);
  EXPECT_NEAR(restored.ridge_point(1, 3).value, model.ridge_point(1, 3).value, 1e-9);
}

TEST(ModelJson, RestoredModelWorksWithAdvisor) {
  BuilderOptions options;
  options.prune_min_count = 10;
  const auto model = build_simulated(simhw::machine_by_name("gold6148"), options);
  const auto restored = model_from_json(to_json(model));
  const auto a = assess(restored, util::Intensity{1.0 / 12.0});
  EXPECT_TRUE(a.memory_bound);
  EXPECT_GT(a.attainable.value, 0.0);
}

TEST(ModelJson, L3CeilingsHaveNoUtilizationAfterRoundTrip) {
  BuilderOptions options;
  options.prune_min_count = 10;
  const auto restored = model_from_json(
      to_json(build_simulated(simhw::machine_by_name("2695v4"), options)));
  // Memory ceilings alternate [L3, DRAM, L3, DRAM].
  EXPECT_FALSE(restored.memory()[0].utilization().has_value());
  EXPECT_TRUE(restored.memory()[1].utilization().has_value());
}

TEST(ModelJson, MalformedInputsThrow) {
  EXPECT_THROW(model_from_json("not json"), std::invalid_argument);
  EXPECT_THROW(model_from_json("{}"), std::out_of_range);
  EXPECT_THROW(model_from_json(R"({"machine":"x","compute_ceilings":[{}],)"
                               R"("memory_ceilings":[]})"),
               std::out_of_range);
  try {
    (void)model_from_json(R"({"machine":"x","compute_ceilings":[{"name":"c",)"
                          R"("gflops":1,"best_config":"n=abc"}],"memory_ceilings":[]})");
    FAIL() << "expected a bad-config error";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "model_from_json: bad config 'n=abc'");
  }
}

TEST(PlotPoints, RenderedIntoSvg) {
  RooflineModel model;
  model.machine_name = "pts";
  model.add_compute({"C", util::GFlops{400.0}, util::GFlops{0.0}, {}, {}});
  model.add_memory({"M", util::GBps{40.0}, util::GBps{0.0}, {}, {}});
  PlotOptions options;
  options.points.push_back({"DGEMM", 50.0, 390.0});
  options.points.push_back({"TRIAD", 1.0 / 12.0, 3.3});
  options.points.push_back({"invalid", -1.0, 5.0});  // skipped silently
  const std::string svg = render_svg(model, options);
  std::size_t circles = 0;
  for (std::size_t pos = svg.find("<circle"); pos != std::string::npos;
       pos = svg.find("<circle", pos + 1)) {
    ++circles;
  }
  EXPECT_EQ(circles, 2u);
  EXPECT_NE(svg.find(">DGEMM</text>"), std::string::npos);
  EXPECT_NE(svg.find(">TRIAD</text>"), std::string::npos);
}

}  // namespace
}  // namespace rooftune::roofline

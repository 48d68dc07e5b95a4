#include "telemetry/report.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace rooftune::telemetry {
namespace {

SpanRecord span(std::uint64_t ordinal, std::uint64_t invocation,
                double freq_begin, double freq_end, double pkg_j,
                double flops) {
  SpanRecord r;
  r.config_ordinal = ordinal;
  r.invocation = invocation;
  r.span.freq_begin_mhz = freq_begin;
  r.span.freq_end_mhz = freq_end;
  r.span.freq_mean_mhz = (freq_begin + freq_end) / 2.0;
  r.span.pkg_joules = pkg_j;
  r.span.valid = true;
  r.flops = flops;
  r.kernel_s = 0.1;
  r.wall_s = 0.2;
  return r;
}

TEST(ReadSidecar, RequiresTheHeaderFirst) {
  EXPECT_THROW(static_cast<void>(read_sidecar(
                   R"({"t":"span","epoch":0,"ord":0,"inv":0})")),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(read_sidecar("not json")), std::runtime_error);
}

TEST(ReadSidecar, ReportsTheOffendingLine) {
  // Malformed JSON, and a well-formed record whose field has the wrong type.
  for (const char* record : {"{\"t\":\"span\",broken",
                             "{\"t\":\"span\",\"epoch\":\"x\",\"ord\":0,\"inv\":0}"}) {
    const std::string text = std::string("{\"t\":\"telemetry\",\"v\":1}\n") + record + "\n";
    try {
      static_cast<void>(read_sidecar(text));
      FAIL() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ReadSidecar, EmptySidecarIsJustTheHeader) {
  const SidecarData data = read_sidecar("{\"t\":\"telemetry\",\"v\":1}\n");
  EXPECT_TRUE(data.spans.empty());
  EXPECT_TRUE(data.host.empty());
  EXPECT_FALSE(data.sampler.has_value());
}

TEST(AnalyzeStability, DetectsThrottleEventsAgainstTheSustainedMax) {
  SidecarData data;
  data.spans.push_back(span(0, 0, 2400.0, 2390.0, 10.0, 1e9));  // fine
  data.spans.push_back(span(0, 1, 2400.0, 2200.0, 10.0, 1e9));  // -8.3 %
  data.spans.push_back(span(1, 0, 2400.0, 2000.0, 10.0, 1e9));  // -16.7 %

  const StabilityReport report = analyze_stability(data, 0.05);
  EXPECT_DOUBLE_EQ(report.sustained_max_mhz, 2400.0);
  EXPECT_EQ(report.throttle_events, 2);
  EXPECT_NEAR(report.worst_drift, 1.0 - 2000.0 / 2400.0, 1e-12);
  ASSERT_EQ(report.configs.size(), 2u);
  EXPECT_EQ(report.configs[0].throttle_events, 1);
  EXPECT_EQ(report.configs[1].throttle_events, 1);
  // A looser threshold absorbs both drifts.
  EXPECT_EQ(analyze_stability(data, 0.20).throttle_events, 0);
}

TEST(AnalyzeStability, ComputesEnergyFigures) {
  SidecarData data;
  // 2 invocations, 5 J each over 2 GFLOP each: 2.5 J/GFLOP, 0.4 GFLOP/s/W.
  data.spans.push_back(span(3, 0, 2400.0, 2400.0, 5.0, 2e9));
  data.spans.push_back(span(3, 1, 2400.0, 2400.0, 5.0, 2e9));

  const StabilityReport report = analyze_stability(data);
  ASSERT_EQ(report.configs.size(), 1u);
  const ConfigStability& c = report.configs[0];
  EXPECT_EQ(c.config_ordinal, 3u);
  EXPECT_EQ(c.spans, 2u);
  EXPECT_DOUBLE_EQ(c.pkg_joules, 10.0);
  EXPECT_DOUBLE_EQ(c.gflop, 4.0);
  EXPECT_DOUBLE_EQ(c.joules_per_gflop, 2.5);
  EXPECT_DOUBLE_EQ(c.gflops_per_watt, 0.4);
  // GFLOP/s/W is GFLOP/J: the two figures are reciprocal.
  EXPECT_NEAR(c.joules_per_gflop * c.gflops_per_watt, 1.0, 1e-12);
}

TEST(AnalyzeStability, FrequencyCvNeedsTwoSpans) {
  SidecarData data;
  data.spans.push_back(span(0, 0, 2400.0, 2400.0, 0.0, 0.0));
  const StabilityReport one = analyze_stability(data);
  EXPECT_DOUBLE_EQ(one.configs[0].freq_cv, 0.0);

  data.spans.push_back(span(0, 1, 2000.0, 2000.0, 0.0, 0.0));
  const StabilityReport two = analyze_stability(data);
  EXPECT_GT(two.configs[0].freq_cv, 0.0);
}

TEST(AnalyzeStability, NoEnergyMeansNoEfficiencyFigures) {
  SidecarData data;
  data.spans.push_back(span(0, 0, 2400.0, 2400.0, 0.0, 1e9));
  const StabilityReport report = analyze_stability(data);
  EXPECT_DOUBLE_EQ(report.configs[0].joules_per_gflop, 0.0);
  EXPECT_DOUBLE_EQ(report.configs[0].gflops_per_watt, 0.0);
}

TEST(StabilityReport, RenderContainsTheFigures) {
  SidecarData data;
  data.spans.push_back(span(0, 0, 2400.0, 2100.0, 5.0, 2e9));
  const std::string text = render_stability_report(analyze_stability(data));
  EXPECT_NE(text.find("J/GFLOP"), std::string::npos);
  EXPECT_NE(text.find("GFLOP/s/W"), std::string::npos);
  EXPECT_NE(text.find("Throttle events: 1"), std::string::npos);
  EXPECT_TRUE(render_stability_report(analyze_stability(SidecarData{})).empty());
}

TEST(RunQuality, WarnsOnGovernorTurboAndDrift) {
  EnvironmentFingerprint env;
  // Assigned from temporaries: assigning the literals directly trips a GCC 12
  // -Wmaybe-uninitialized false positive.
  env.governor = std::string("powersave");
  env.turbo = std::string("on");

  SidecarData data;
  data.spans.push_back(span(0, 0, 2400.0, 2000.0, 0.0, 0.0));
  const StabilityReport stability = analyze_stability(data);

  const RunQuality quality = assess_run_quality(env, &stability);
  EXPECT_FALSE(quality.ok());
  EXPECT_EQ(quality.warnings.size(), 3u);

  const std::string rendered = render_run_quality(quality);
  EXPECT_NE(rendered.find("WARN"), std::string::npos);
  EXPECT_NE(rendered.find("powersave"), std::string::npos);
}

TEST(RunQuality, CleanEnvironmentIsOk) {
  EnvironmentFingerprint env;
  env.governor = "performance";
  env.turbo = "off";
  const RunQuality quality = assess_run_quality(env, nullptr);
  EXPECT_TRUE(quality.ok());
  EXPECT_EQ(render_run_quality(quality), "run quality: ok\n");
}

TEST(RunQuality, UnknownEnvironmentDoesNotWarn) {
  // Containers without cpufreq must not drown every run in warnings.
  EnvironmentFingerprint env;
  env.governor = "unknown";
  env.turbo = "unknown";
  EXPECT_TRUE(assess_run_quality(env, nullptr).ok());
}

}  // namespace
}  // namespace rooftune::telemetry

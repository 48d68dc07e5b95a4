// The checks must catch what they exist for: a tampered export fails its
// replay and a planted optimum fails the grid-6 accuracy check, and both
// show up as failed verifications in the run document.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "harness/grid6.hpp"
#include "harness/run_loop.hpp"
#include "harness/workload.hpp"
#include "util/json_parse.hpp"

namespace rooftune::suite {
namespace {

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string failures;
};

Tally run(const std::string& workload, const WorkloadFactory& factory) {
  RunOptions options;
  options.workload = workload;
  options.seed = 2021;
  options.workdir = "test-work/fail-rate-" + workload;
  options.seconds = 0.0;  // one pass
  std::filesystem::remove_all(options.workdir);
  const util::JsonValue doc = util::parse_json(run_workload(options, factory));
  std::filesystem::remove_all(options.workdir);
  Tally tally;
  tally.attempted = static_cast<std::uint64_t>(doc.at("attempted").as_int());
  tally.failed = static_cast<std::uint64_t>(doc.at("failed").as_int());
  for (const auto& f : doc.at("failures").as_array()) tally.failures += f.as_string() + "\n";
  return tally;
}

/// Change one recorded invocation mean in an export, keeping it valid JSON.
void tamper(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string text = buffer.str();
  const std::size_t key = text.find("\"mean\":");
  ASSERT_NE(key, std::string::npos);
  const std::size_t digit = text.find_first_of("123456789", key);
  text[digit] = text[digit] == '9' ? '1' : static_cast<char>(text[digit] + 1);
  std::ofstream(path) << text;
}

TEST(FailRate, TamperedExportFailsReplay) {
  const Tally clean = run("artifact-readback", make_artifact_readback);
  EXPECT_EQ(clean.failed, 0u) << clean.failures;

  const Tally tampered = run("artifact-readback", [](const RunContext& ctx) {
    auto workload = make_artifact_readback(ctx);
    tamper(grid6_artifact_path(readback_dir(ctx), "racing", "export"));
    return workload;
  });
  EXPECT_EQ(tampered.attempted, clean.attempted);
  EXPECT_GT(tampered.failed, 0u);
  EXPECT_NE(tampered.failures.find("racing export replays with 0 mismatches"),
            std::string::npos)
      << tampered.failures;
}

TEST(FailRate, PlantedOptimumFailsAccuracyCheck) {
  const Tally tally = run("grid6-pipeline", [](const RunContext& ctx) {
    // An optimum 20 % better than any configuration of the grid reaches.
    Grid6Reference planted = grid6_reference(ctx.seed);
    planted.surface_gflops *= 1.2;
    return make_grid6_pipeline(ctx, planted);
  });
  EXPECT_EQ(tally.failed, 4u) << tally.failures;
  EXPECT_NE(tally.failures.find("surrogate within 10% of the reference optimum"),
            std::string::npos)
      << tally.failures;
}

}  // namespace
}  // namespace rooftune::suite

#include "cli/commands.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

namespace rooftune::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(std::initializer_list<std::string> args) {
  std::ostringstream out, err;
  const int code = run_cli(std::vector<std::string>(args), out, err);
  return {code, out.str(), err.str()};
}

TEST(Cli, NoArgsShowsUsageAndFails) {
  const auto r = run({});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.out.find("usage:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const auto r = run({"help"});
  EXPECT_EQ(r.code, 0);
  EXPECT_NE(r.out.find("roofline"), std::string::npos);
}

TEST(Cli, UnknownCommandFails) {
  const auto r = run({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown command"), std::string::npos);
}

TEST(Cli, MachinesListsAllFive) {
  const auto r = run({"machines"});
  EXPECT_EQ(r.code, 0);
  for (const char* name :
       {"2650v4", "2695v4", "gold6132", "gold6148", "silver4110"}) {
    EXPECT_NE(r.out.find(name), std::string::npos) << name;
  }
  // Table III peaks visible.
  EXPECT_NE(r.out.find("422.4"), std::string::npos);
  EXPECT_NE(r.out.find("127.968"), std::string::npos);
}

TEST(Cli, DgemmOnSimulatedMachine) {
  const auto r =
      run({"dgemm", "--machine", "2650v4", "--technique", "c+i+o", "--min-count", "10"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("n=1000,m=4096,k=128"), std::string::npos) << r.out;
  EXPECT_NE(r.out.find("GFLOP/s"), std::string::npos);
}

TEST(Cli, DgemmJsonOutput) {
  const auto r = run({"dgemm", "--machine", "gold6132", "--json", "--min-count", "10"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out.rfind("{", 0), 0u);
  EXPECT_NE(r.out.find("\"best\""), std::string::npos);
}

TEST(Cli, DgemmCsvOutput) {
  const auto r = run({"dgemm", "--machine", "gold6132", "--csv", "--min-count", "10"});
  EXPECT_EQ(r.code, 0);
  EXPECT_EQ(r.out.rfind("n,m,k,", 0), 0u);
}

TEST(Cli, TriadRunsAndFindsCacheResidentPeak) {
  const auto r = run({"triad", "--machine", "2650v4", "--sockets", "2"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("GB/s"), std::string::npos);
}

TEST(Cli, RejectsUnknownMachine) {
  const auto r = run({"dgemm", "--machine", "m2max"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown machine"), std::string::npos);
}

TEST(Cli, RejectsUnknownTechnique) {
  const auto r = run({"dgemm", "--machine", "2650v4", "--technique", "magic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("unknown technique"), std::string::npos);
}

TEST(Cli, RejectsUnknownOrder) {
  const auto r = run({"dgemm", "--machine", "2650v4", "--order", "spiral"});
  EXPECT_EQ(r.code, 1);
}

TEST(Cli, RooflineProducesUtilizationTable) {
  const auto r = run({"roofline", "--machine", "gold6148", "--min-count", "10"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("DGEMM 1 socket"), std::string::npos);
  EXPECT_NE(r.out.find("DRAM 2 sockets"), std::string::npos);
  EXPECT_NE(r.out.find("Utilization"), std::string::npos);
  EXPECT_NE(r.out.find("Roofline: gold6148"), std::string::npos);  // ASCII plot
}

/// The first compute ceiling's tuning time in `roofline --json` output.
double dgemm_tuning_seconds(const std::string& json) {
  const std::string key = "\"tuning_time_seconds\":";
  const auto at = json.find(key);
  EXPECT_NE(at, std::string::npos) << json;
  return at == std::string::npos ? 0.0 : std::stod(json.substr(at + key.size()));
}

TEST(Cli, RooflineHonoursTechnique) {
  const auto recommended = run({"roofline", "--machine", "2650v4", "--json"});
  ASSERT_EQ(recommended.code, 0) << recommended.err;
  // C+I+O with a minimum prune count of 10 is the default; naming it
  // changes nothing, and the default run keeps its pinned search cost.
  const auto explicit_cio = run({"roofline", "--machine", "2650v4", "--json",
                                 "--technique", "c+i+o", "--min-count", "10"});
  EXPECT_EQ(explicit_cio.out, recommended.out);
  EXPECT_NEAR(dgemm_tuning_seconds(recommended.out), 32.3590113634, 1e-6);
  // The fixed-sample Default technique runs every configuration to its
  // iteration cap, so the same ceiling costs far more tuning time.
  const auto fixed = run({"roofline", "--machine", "2650v4", "--json",
                          "--technique", "default"});
  ASSERT_EQ(fixed.code, 0) << fixed.err;
  EXPECT_GT(dgemm_tuning_seconds(fixed.out),
            10.0 * dgemm_tuning_seconds(recommended.out));
}

// Every artifact writer checks the write and the close: a full device
// fails the command and names the path instead of exiting 0 with nothing
// written.
class ArtifactWriteCli : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!std::filesystem::exists("/dev/full")) {
      GTEST_SKIP() << "/dev/full is not available";
    }
  }

  static void expect_write_failure(std::initializer_list<std::string> extra,
                                   const std::string& path) {
    std::vector<std::string> args = {"dgemm", "--machine", "gold6148",
                                     "--invocations", "1", "--iterations", "2"};
    args.insert(args.end(), extra);
    std::ostringstream out, err;
    EXPECT_EQ(run_cli(args, out, err), 1) << out.str();
    EXPECT_NE(err.str().find("write to '" + path + "' failed"), std::string::npos)
        << err.str();
  }
};

TEST_F(ArtifactWriteCli, TraceJournalOnAFullDeviceFails) {
  expect_write_failure({"--trace", "/dev/full"}, "/dev/full");
}

TEST_F(ArtifactWriteCli, ProfileOnAFullDeviceFails) {
  expect_write_failure({"--profile", "/dev/full"}, "/dev/full");
}

TEST_F(ArtifactWriteCli, ExportOnAFullDeviceFails) {
  expect_write_failure({"--export", "/dev/full"}, "/dev/full");
}

TEST_F(ArtifactWriteCli, RooflineSvgOnAFullDeviceFails) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"roofline", "--machine", "gold6148", "--svg", "/dev/full"}, out, err), 1);
  EXPECT_NE(err.str().find("write to '/dev/full' failed"), std::string::npos) << err.str();
  EXPECT_EQ(out.str().find("wrote /dev/full"), std::string::npos);
}

// The checkpoint's header is written before the first invocation runs, so
// a checkpoint on a full device fails at once, with no report.
TEST_F(ArtifactWriteCli, CheckpointOnAFullDeviceFailsAtOnce) {
  std::ostringstream out, err;
  EXPECT_EQ(run_cli({"dgemm", "--machine", "gold6148", "--invocations", "1",
                     "--iterations", "2", "--checkpoint", "/dev/full"},
                    out, err),
            1);
  EXPECT_NE(err.str().find("TuningSession: cannot write /dev/full"), std::string::npos)
      << err.str();
  EXPECT_EQ(out.str(), "");
}

TEST_F(ArtifactWriteCli, TelemetrySidecarOnAFullDeviceFails) {
  // The sidecar's path is the journal's plus ".telemetry.jsonl"; a symlink
  // there sends only the sidecar to the full device.
  const auto dir = std::filesystem::temp_directory_path() / "rooftune_full_sidecar";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = (dir / "j.jsonl").string();
  const std::string sidecar = journal + ".telemetry.jsonl";
  std::filesystem::create_symlink("/dev/full", sidecar);
  expect_write_failure({"--trace", journal, "--telemetry"}, sidecar);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rooftune::cli

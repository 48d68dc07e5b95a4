// The CLI's kernel table drives every tuning command: each simulated kernel
// tunes, journals and reconstructs over its table space, kernels without a
// native backend refuse --native, and every command rejects the options it
// does not read.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"
#include "cli/kernels.hpp"
#include "trace/export.hpp"

namespace rooftune::cli {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& args) {
  std::ostringstream out, err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / ("rooftune_kernel_table_" + name))
      .string();
}

TEST(KernelTable, ListsEveryTuningCommandInHelp) {
  const auto help = run({"help"});
  ASSERT_EQ(help.code, 0);
  ASSERT_FALSE(kernels().empty());
  for (const auto& kernel : kernels()) {
    EXPECT_NE(help.out.find(std::string("  ") + kernel.name + " "), std::string::npos)
        << kernel.name;
  }
}

TEST(KernelTable, EverySimulatedKernelTunes) {
  for (const auto& kernel : kernels()) {
    if (kernel.sim == nullptr) continue;  // host-only: tests/cli/test_pipe_cli.cpp
    const auto r = run({kernel.name, "--invocations", "2", "--iterations", "5"});
    EXPECT_EQ(r.code, 0) << kernel.name << ": " << r.err;
    EXPECT_NE(r.out.find("best "), std::string::npos) << kernel.name << ": " << r.out;
  }
}

TEST(KernelTable, JournalExportReconstructsOverTheTableSpace) {
  for (const auto& kernel : kernels()) {
    if (kernel.sim == nullptr) continue;
    const std::string journal = temp_path(std::string(kernel.name) + ".jsonl");
    const std::string exported = temp_path(std::string(kernel.name) + ".export.json");
    ASSERT_EQ(run({kernel.name, "--invocations", "2", "--iterations", "5", "--trace",
                   journal})
                  .code,
              0)
        << kernel.name;
    const auto r = run({"export", "--journal", journal, "-o", exported});
    ASSERT_EQ(r.code, 0) << kernel.name << ": " << r.err;

    const trace::ExportDocument doc = trace::parse_export_file(exported);
    const core::SearchSpace space = kernel.space(ArgParser{});
    EXPECT_EQ(doc.benchmark, kernel.name);
    EXPECT_EQ(doc.space.cardinality(), space.cardinality()) << kernel.name;
    ASSERT_EQ(doc.space.ranges().size(), space.ranges().size()) << kernel.name;
    for (std::size_t d = 0; d < space.ranges().size(); ++d) {
      EXPECT_EQ(doc.space.ranges()[d].name(), space.ranges()[d].name()) << kernel.name;
      EXPECT_EQ(doc.space.ranges()[d].values(), space.ranges()[d].values())
          << kernel.name;
    }
    EXPECT_EQ(doc.results.size(), space.cardinality()) << kernel.name;
    std::filesystem::remove(journal);
    std::filesystem::remove(exported);
  }
}

TEST(KernelTable, KernelsWithoutNativeBackendRefuseNative) {
  for (const auto& kernel : kernels()) {
    if (kernel.sim == nullptr || kernel.native != nullptr) continue;
    const auto r = run({kernel.name, "--native"});
    EXPECT_EQ(r.code, 1) << kernel.name;
    EXPECT_NE(r.err.find("--native is not supported"), std::string::npos)
        << kernel.name << ": " << r.err;
  }
}

/// pipe takes its whole space from --param, so a journal alone cannot be
/// reconstructed into an export.
TEST(KernelTable, PipeJournalHasNoStandardSpace) {
  const std::string journal = temp_path("pipe.jsonl");
  ASSERT_EQ(run({"pipe", "--command", "echo {n}", "--param", "n=1,2", "--invocations",
                 "1", "--iterations", "1", "--trace", journal})
                .code,
            0);
  const auto r = run({"export", "--journal", journal, "-o", journal + ".json"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("no standard search space"), std::string::npos) << r.err;
  std::filesystem::remove(journal);
}

TEST(CliOptions, CommandsRejectOptionsTheyDoNotRead) {
  const std::vector<std::vector<std::string>> cases = {
      {"triad", "--grid-scale", "6", "--small-space"},
      {"triad", "--small-space"},
      {"stream", "--workers", "4", "--checkpoint", "ck", "--counter-prune"},
      {"stream", "--checkpoint", "ck"},
      {"stream", "--counter-prune"},
      {"stream", "--min-mib", "8"},
      {"advise", "--native"},
      {"dgemm", "--intensity", "1"},
      {"spmv", "--small-space"},
      {"pipe", "--machine", "gold6148"},
      {"roofline", "--workers", "2"},
      {"roofline", "--small-space"},
      {"dgemm", "--sched", "wave", "--workers", "2"},
  };
  for (const auto& args : cases) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 1) << args[0] << ' ' << args[1];
    EXPECT_NE(r.err.find("unknown option --" + args[1].substr(2)), std::string::npos)
        << args[0] << ' ' << args[1] << ": " << r.err;
  }
}

// dgemm and triad register both the simulator's and the native backend's
// options; the backend a run selects refuses the other's, instead of
// ignoring them.  The refusal comes before any backend is built, so the
// --native cases run no host kernel.
TEST(CliOptions, BackendRefusesOptionsItNeverReads) {
  const std::vector<std::vector<std::string>> sim_only = {
      {"--machine", "gold6148"}, {"--sockets", "2"},
      {"--setup-overhead", "0.1"}, {"--thermal-tau", "5"},
      {"--throttle-factor", "0.8"}, {"--pkg-power", "100"},
      {"--dram-power", "10"}, {"--cost-skew", "8"},
      {"--cost-base", "0.001"}, {"--sim-counters"},
  };
  const std::vector<std::vector<std::string>> native_only = {
      {"--huge-pages"},
      {"--custom-machine", "host:2.0:4:1:avx2:2:32MiB:2400:2"},
  };
  for (const char* kernel : {"dgemm", "triad"}) {
    for (const auto& option : sim_only) {
      std::vector<std::string> args = {kernel, "--native"};
      args.insert(args.end(), option.begin(), option.end());
      const auto r = run(args);
      EXPECT_EQ(r.code, 1) << kernel << ' ' << option[0];
      EXPECT_NE(r.err.find(option[0] + " has no effect with --native"),
                std::string::npos)
          << kernel << ' ' << option[0] << ": " << r.err;
    }
    for (const auto& option : native_only) {
      std::vector<std::string> args = {kernel};
      args.insert(args.end(), option.begin(), option.end());
      const auto r = run(args);
      EXPECT_EQ(r.code, 1) << kernel << ' ' << option[0];
      EXPECT_NE(r.err.find(option[0] + " has no effect without --native"),
                std::string::npos)
          << kernel << ' ' << option[0] << ": " << r.err;
    }
  }
}

// The narrowed space has no enlarged variant: --grid-scale above 1 would
// be dropped, so the pair is refused.
TEST(CliOptions, SmallSpaceRefusesGridScale) {
  const auto r = run({"dgemm", "--small-space", "--grid-scale", "4"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("--small-space has no --grid-scale variant"),
            std::string::npos)
      << r.err;
  EXPECT_EQ(run({"dgemm", "--small-space", "--grid-scale", "1", "--invocations",
                 "1", "--iterations", "2"})
                .code,
            0);
}

TEST(CliOptions, KernelHelpListsItsOwnOptions) {
  const auto r = run({"dgemm", "--help"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("usage: rooftune dgemm"), std::string::npos) << r.out;
  for (const char* option : {"--grid-scale", "--small-space", "--workers", "--trace",
                             "--technique", "--native"}) {
    EXPECT_NE(r.out.find(option), std::string::npos) << option;
  }
  EXPECT_EQ(r.out.find("--min-mib"), std::string::npos);
  EXPECT_EQ(r.out.find("--svg"), std::string::npos);
}

TEST(CliOptions, RooflineHelpListsItsOwnOptions) {
  const auto r = run({"roofline", "--help"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("usage: rooftune roofline"), std::string::npos) << r.out;
  for (const char* option :
       {"--svg", "--machine", "--technique", "--json", "--full-space"}) {
    EXPECT_NE(r.out.find(option), std::string::npos) << option;
  }
  EXPECT_EQ(r.out.find("--small-space"), std::string::npos);
  EXPECT_EQ(r.out.find("--workers"), std::string::npos);
  EXPECT_EQ(r.out.find("--trace"), std::string::npos);
}

}  // namespace
}  // namespace rooftune::cli

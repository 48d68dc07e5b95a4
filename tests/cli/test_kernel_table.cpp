// The CLI's kernel table drives every tuning command: each simulated kernel
// tunes, journals and reconstructs over its table space, kernels without a
// native backend refuse --native, and every command rejects the options it
// does not read.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
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

// A positional argument that no command reads is refused by name, not
// dropped: a stray word after a run's options, and a path after --telemetry
// (a flag, so the path was never its value).  Each refusal comes before the
// run, so neither case writes a journal.
TEST(CliOptions, StrayPositionalArgumentsAreRefusedByName) {
  const std::vector<std::string> dgemm = {"dgemm", "--machine", "gold6148",
                                          "--invocations", "1", "--iterations", "2"};
  const auto with = [&](std::initializer_list<std::string> extra) {
    std::vector<std::string> args = dgemm;
    args.insert(args.end(), extra);
    return args;
  };
  const std::string journal =
      (std::filesystem::temp_directory_path() / "rooftune_stray.jsonl").string();
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {with({"extra"}), "extra"},
      {with({"--trace", journal, "--telemetry", "/dev/full"}), "/dev/full"},
      {{"roofline", "--machine", "gold6148", "extra"}, "extra"},
      {{"machines", "extra"}, "extra"},
      {{"trace", journal, "extra"}, "extra"},
      {{"profile", "p.json", "extra"}, "extra"},
  };
  for (const auto& [args, stray] : cases) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 1) << args[0] << ' ' << stray;
    EXPECT_NE(r.err.find(args[0] + ": unexpected argument '" + stray + "'"),
              std::string::npos)
        << r.err;
    EXPECT_FALSE(std::filesystem::exists(journal)) << args[0] << ' ' << stray;
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

// roofline and stream refuse the same way, before any backend is built:
// the --native cases below run no host kernel.
TEST(CliOptions, RooflineAndStreamRefuseOptionsTheirBackendIgnores) {
  const std::vector<std::vector<std::string>> with_native = {
      {"roofline", "--native", "--machine", "gold6148"},
      {"stream", "--native", "--machine", "gold6148"},
      {"stream", "--native", "--sockets", "2"},
      {"stream", "--native", "--cost-skew", "8"},
  };
  for (const auto& args : with_native) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 1) << args[0] << ' ' << args[2];
    EXPECT_NE(r.err.find(args[2] + " has no effect with --native"), std::string::npos)
        << args[0] << ": " << r.err;
  }
  const std::vector<std::vector<std::string>> without_native = {
      {"roofline", "--full-space", "--machine", "gold6148"},
      {"roofline", "--custom-machine", "host:2.0:4:1:avx2:2:32MiB:2400:2"},
      {"stream", "--huge-pages"},
  };
  for (const auto& args : without_native) {
    const auto r = run(args);
    EXPECT_EQ(r.code, 1) << args[0] << ' ' << args[1];
    EXPECT_NE(r.err.find(args[1] + " has no effect without --native"),
              std::string::npos)
        << args[0] << ": " << r.err;
  }
}

// An L3 size past 2^64 bytes is refused while the spec is parsed, before
// any host kernel runs.
TEST(CliOptions, CustomMachineRejectsAnOutOfRangeL3) {
  const auto r = run({"roofline", "--native", "--custom-machine",
                      "host:2.0:4:1:avx2:2:1e30K:2400:2"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("'1e30K' is out of range"), std::string::npos) << r.err;
}

// A core, socket, FMA-unit or channel count outside [1, INT_MAX] (or not a
// number at all) is refused by name before it is converted to an int.
TEST(CliOptions, CustomMachineRejectsAnOutOfRangeCount) {
  const struct {
    const char* spec;
    const char* message;
  } cases[] = {
      {"host:2.0:1e30:1:avx2:2:30MiB:2400:2", "core count '1e30' is out of range"},
      {"host:2.0:4:inf:avx2:2:30MiB:2400:2", "socket count 'inf' is out of range"},
      {"host:2.0:4:1:avx2:nan:30MiB:2400:2", "fma unit count 'nan' is out of range"},
      {"host:2.0:4:1:avx2:2:30MiB:2400:3e9", "channel count '3e9' is out of range"},
      {"host:2.0:0:1:avx2:2:30MiB:2400:2", "core count '0' is out of range"},
  };
  for (const auto& c : cases) {
    const auto r = run({"roofline", "--native", "--custom-machine", c.spec});
    EXPECT_EQ(r.code, 1) << c.spec;
    EXPECT_NE(r.err.find(c.message), std::string::npos) << r.err;
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

// Tuner numbers parse as a whole token and never as NaN: a NaN --timeout
// used to drop the time budget, a NaN --setup-overhead printed a garbage
// duration, and "50abc" tuned with 50 iterations.
TEST(CliOptions, NumbersMustBeWholeAndNotNaN) {
  const std::vector<std::vector<std::string>> cases = {
      {"--timeout", "nan", "'nan' is not a number"},
      {"--setup-overhead", "nan", "'nan' is not a number"},
      {"--iterations", "50abc", "'50abc' is not an integer"},
  };
  for (const auto& c : cases) {
    const auto r = run({"dgemm", "--machine", "gold6148", c[0], c[1]});
    EXPECT_EQ(r.code, 1) << c[0];
    EXPECT_NE(r.err.find(c[0] + ": " + c[2]), std::string::npos) << r.err;
  }
}

// An unsigned tuner count refuses a negative value by name instead of
// wrapping it to a cap near 2^64; zero caps are refused by the stop rules.
TEST(CliOptions, TunerCountsRejectNegatives) {
  for (const char* option : {"--invocations", "--iterations", "--min-count",
                             "--racing-min", "--seed-budget", "--confirm-top"}) {
    const auto r = run({"dgemm", "--machine", "gold6148", option, "-5"});
    EXPECT_EQ(r.code, 1) << option;
    EXPECT_NE(r.err.find(std::string(option) + " must be >= 0"), std::string::npos)
        << option << ": " << r.err;
  }
  const auto zero = run({"dgemm", "--machine", "gold6148", "--iterations", "0"});
  EXPECT_EQ(zero.code, 1);
  EXPECT_NE(zero.err.find("TunerOptions::iterations must be > 0"), std::string::npos)
      << zero.err;
}

// An option that only refines another is refused without it, on the
// simulated and the --native path, instead of being accepted and ignored.
// Every refusal comes before a backend is built, so no host kernel runs.
TEST(CliOptions, RefiningOptionsRequireTheOptionTheyRefine) {
  const std::vector<std::vector<std::string>> cases = {
      {"dgemm", "--machine", "gold6148", "--counter-window", "-7", "--invocations", "1",
       "--iterations", "2", "--counter-window requires --counter-prune"},
      {"dgemm", "--native", "--counter-window", "3", "--counter-window requires --counter-prune"},
      {"triad", "--native", "--counter-window", "3", "--counter-window requires --counter-prune"},
      {"spmv", "--counter-window", "3", "--counter-window requires --counter-prune"},
      {"dgemm", "--machine", "gold6148", "--lookahead", "2", "--lookahead requires --workers"},
  };
  for (const auto& c : cases) {
    const std::vector<std::string> args(c.begin(), c.end() - 1);
    const auto r = run(args);
    EXPECT_EQ(r.code, 1) << c[0] << ' ' << c[1];
    EXPECT_NE(r.err.find(c.back()), std::string::npos) << r.err;
  }
}

// Integer options stored in narrower or unsigned fields are range-checked
// by name instead of wrapping: --grid-scale 2^32+1 used to tune the grid-1
// space, --sockets 2^32+2 ran on 2 sockets, and a negative --counter-window
// or MiB bound became a bound near 2^64.  A MiB bound whose byte count
// overflows 64 bits is refused too.  Every case fails while parsing.
TEST(CliOptions, IntegerOptionsRejectOutOfRange) {
  const std::vector<std::vector<std::string>> cases = {
      {"dgemm", "--grid-scale", "4294967297", "--grid-scale must be <= 2147483647"},
      {"dgemm", "--sockets", "4294967298", "--sockets must be <= 2147483647"},
      {"dgemm", "--sockets", "0", "--sockets must be >= 1"},
      {"dgemm", "--counter-window", "-1", "--counter-window must be >= 0"},
      {"stencil", "--grid-n", "4", "--grid-n must be >= 8"},
      {"triad", "--min-mib", "-1", "--min-mib must be >= 0"},
      {"triad", "--max-mib", "-1", "--max-mib must be >= 0"},
      {"triad", "--max-mib", "17592186044416", "--max-mib must be <= 17592186044415"},
      {"triad", "--min-mib", "17592186044416", "--min-mib must be <= 17592186044415"},
  };
  for (const auto& c : cases) {
    const auto r = run({c[0], "--machine", "gold6148", "--counter-prune", c[1], c[2]});
    EXPECT_EQ(r.code, 1) << c[1] << " " << c[2];
    EXPECT_NE(r.err.find(c[3]), std::string::npos) << r.err;
  }
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

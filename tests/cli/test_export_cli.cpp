// CLI wiring for the kernel-suite additions and the portable export:
// the spmv/stencil subcommands, --export on tuning runs, `rooftune export`
// (journal reconstruction), `rooftune import --replay` verification, the
// byte-identical re-export, and the schema-version rejections.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cli/commands.hpp"

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

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Per-test scratch paths under the system temp dir, removed on teardown.
class ExportCliTest : public ::testing::Test {
 protected:
  std::string path(const std::string& suffix) {
    const std::string p =
        (std::filesystem::temp_directory_path() /
         ("rooftune_export_cli_" +
          std::to_string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->line()) +
          suffix))
            .string();
    cleanup_.push_back(p);
    std::filesystem::remove(p);
    return p;
  }

  void TearDown() override {
    for (const auto& p : cleanup_) std::filesystem::remove(p);
  }

  std::vector<std::string> cleanup_;
};

TEST_F(ExportCliTest, UsageListsTheNewCommands) {
  const auto r = run({"help"});
  EXPECT_EQ(r.code, 0);
  for (const char* command : {"spmv", "stencil", "export", "import"}) {
    EXPECT_NE(r.out.find(command), std::string::npos) << command;
  }
}

TEST_F(ExportCliTest, SpmvTunesOnSimulatedMachine) {
  const auto r = run({"spmv", "--invocations", "2", "--iterations", "10"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("GFLOP/s"), std::string::npos);
  EXPECT_NE(r.out.find("format="), std::string::npos) << r.out;
}

TEST_F(ExportCliTest, StencilTunesWithGridFlag) {
  const auto r = run({"stencil", "--grid-n", "512", "--invocations", "2",
                      "--iterations", "10"});
  EXPECT_EQ(r.code, 0) << r.err;
  EXPECT_NE(r.out.find("ti="), std::string::npos) << r.out;
}

TEST_F(ExportCliTest, NewKernelsRejectNative) {
  for (const char* kernel : {"spmv", "stencil"}) {
    const auto r = run({kernel, "--native"});
    EXPECT_EQ(r.code, 1) << kernel;
    EXPECT_NE(r.err.find("--native is not supported"), std::string::npos)
        << kernel;
  }
}

TEST_F(ExportCliTest, ExportImportReplayRoundTripsByteIdentically) {
  const std::string exported = path(".json");
  const std::string reexported = path(".re.json");
  const auto tune = run({"spmv", "--invocations", "2", "--iterations", "10",
                         "--export", exported});
  ASSERT_EQ(tune.code, 0) << tune.err;
  EXPECT_NE(tune.out.find("wrote tuning export"), std::string::npos);

  const auto imported =
      run({"import", exported, "--replay", "-o", reexported});
  EXPECT_EQ(imported.code, 0) << imported.err;
  EXPECT_NE(imported.out.find("0 value mismatch(es)"), std::string::npos)
      << imported.out;
  EXPECT_NE(imported.out.find("reproduced bit-identically"), std::string::npos)
      << imported.out;
  EXPECT_EQ(read_file(exported), read_file(reexported));
}

TEST_F(ExportCliTest, ExportCommandReconstructsFromJournal) {
  const std::string journal = path(".jsonl");
  const std::string exported = path(".json");
  const auto tune = run({"stencil", "--grid-n", "512", "--invocations", "2",
                         "--iterations", "10", "--trace", journal});
  ASSERT_EQ(tune.code, 0) << tune.err;

  const auto exported_r = run({"export", "--journal", journal, "-o", exported});
  ASSERT_EQ(exported_r.code, 0) << exported_r.err;
  EXPECT_NE(exported_r.out.find("benchmark stencil"), std::string::npos)
      << exported_r.out;

  const auto imported = run({"import", exported, "--replay"});
  EXPECT_EQ(imported.code, 0) << imported.err;
  EXPECT_NE(imported.out.find("reproduced bit-identically"), std::string::npos)
      << imported.out;
}

// A journal of a --grid-scale run holds configurations outside the
// standard space that `export --journal` assumes: the export is refused,
// naming the value and its range, instead of written wrong.  An export
// edited to leave its space, or to point `best` past its results, is
// refused on import.
TEST_F(ExportCliTest, ConfigurationsOutsideTheSpaceAreRefused) {
  const std::string journal = path(".jsonl");
  const std::string exported = path(".json");
  const std::vector<std::string> quick = {"--machine", "gold6148", "--invocations", "1",
                                          "--iterations", "2"};
  std::vector<std::string> tune = {"dgemm", "--grid-scale", "2", "--trace", journal};
  tune.insert(tune.end(), quick.begin(), quick.end());
  ASSERT_EQ(run(tune).code, 0);
  const auto refused = run({"export", "--journal", journal, "-o", exported});
  EXPECT_EQ(refused.code, 1);
  EXPECT_NE(refused.err.find("outside the search space"), std::string::npos) << refused.err;
  EXPECT_NE(refused.err.find("value 91 not in range 'k'"), std::string::npos) << refused.err;
  EXPECT_FALSE(std::filesystem::exists(exported));

  tune = {"dgemm", "--export", exported};
  tune.insert(tune.end(), quick.begin(), quick.end());
  ASSERT_EQ(run(tune).code, 0);
  const std::string text = read_file(exported);
  const struct {
    std::string from, to, reason;
  } edits[] = {
      {"\"k\":64}", "\"k\":407}", "value 407 not in range 'k'"},
      {"\"best\":{\"index\":", "\"best\":{\"index\":85", "best.index 8"},
  };
  for (const auto& edit : edits) {
    const std::string edited = path(".edited.json");
    std::string changed = text;
    changed.replace(changed.find(edit.from), edit.from.size(), edit.to);
    std::ofstream(edited) << changed;
    const auto r = run({"import", edited, "--replay"});
    EXPECT_EQ(r.code, 1) << edit.to;
    EXPECT_NE(r.err.find(edit.reason), std::string::npos) << r.err;
    EXPECT_NE(r.err.find("(line 1, column "), std::string::npos) << r.err;
  }
}

TEST_F(ExportCliTest, ImportRejectsNewerSchemaVersion) {
  const std::string exported = path(".json");
  {
    std::ofstream out(exported);
    out << "{\"format\":\"rooftune-export\",\"version\":99}";
  }
  const auto r = run({"import", exported, "--replay"});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("schema version 99"), std::string::npos) << r.err;
}

TEST_F(ExportCliTest, TraceRejectsNewerJournalWithClearError) {
  const std::string journal = path(".jsonl");
  {
    std::ofstream out(journal);
    out << "{\"t\":\"run\",\"v\":99,\"benchmark\":\"dgemm\",\"metric\":"
           "\"GFLOP/s\",\"strategy\":\"exhaustive\"}\n";
  }
  const auto r = run({"trace", journal});
  EXPECT_EQ(r.code, 1);
  EXPECT_NE(r.err.find("journal schema version 99"), std::string::npos)
      << r.err;
  EXPECT_NE(r.err.find("upgrade rooftune"), std::string::npos) << r.err;
}

TEST_F(ExportCliTest, ExportRequiresJournalAndOutput) {
  EXPECT_EQ(run({"export"}).code, 1);
  EXPECT_EQ(run({"export", "--journal", "missing.jsonl"}).code, 1);
  EXPECT_EQ(run({"import"}).code, 1);
}

}  // namespace
}  // namespace rooftune::cli

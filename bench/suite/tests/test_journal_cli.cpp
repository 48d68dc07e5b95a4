// grid6-artifacts must write what the CLI writes: its verify() compares the
// journals and exports with `rooftune dgemm --machine gold6148 --grid-scale
// 6 --trace J --export E` byte for byte, for both strategies it runs, and a
// single changed byte fails the comparison.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/grid6.hpp"
#include "harness/workload.hpp"

namespace rooftune::suite {
namespace {

TEST(Grid6Artifacts, JournalAndExportEqualTheCli) {
  RunContext ctx;
  ctx.seed = 7;
  ctx.workdir = "test-work/journal-cli";
  ctx.host = read_host_facts();
  std::filesystem::remove_all(ctx.workdir);

  const auto workload = make_grid6_artifacts(ctx);
  workload->pass(nullptr);
  const std::vector<Check> clean = workload->verify();
  ASSERT_EQ(clean.size(), 4u);
  for (const auto& c : clean) EXPECT_TRUE(c.ok) << c.name << ": " << c.detail;

  std::ofstream(grid6_artifact_path(ctx.workdir + "/artifacts", "racing", "journal"),
                std::ios::app)
      << "\n";
  const std::vector<Check> changed = workload->verify();
  ASSERT_EQ(changed.size(), 4u);
  EXPECT_FALSE(changed[0].ok) << changed[0].name;
  EXPECT_TRUE(changed[1].ok) << changed[1].name;
  std::filesystem::remove_all(ctx.workdir);
}

}  // namespace
}  // namespace rooftune::suite

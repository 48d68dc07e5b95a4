#include "core/spaces.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

namespace rooftune::core {
namespace {

TEST(DgemmSpaces, InitialCardinalityIs539) {
  // Paper Eq. 8: |S| = 7 * 7 * 11 = 539.
  const auto space = dgemm_initial_space();
  EXPECT_EQ(space.cardinality(), 539u);
  const auto configs = space.enumerate();
  EXPECT_EQ(configs.front().at("n"), 64);
  EXPECT_EQ(configs.front().at("k"), 2);
  EXPECT_EQ(configs.back().at("n"), 4096);
  EXPECT_EQ(configs.back().at("k"), 2048);
}

TEST(DgemmSpaces, NarrowedCardinalityIs96) {
  // §IV-A: 4 * 4 * 6 = 96 after narrowing to 512..4096 / 64..2048.
  EXPECT_EQ(dgemm_narrowed_space().cardinality(), 96u);
}

TEST(DgemmSpaces, ReducedSpaceUsesMultipleOf2LeadingDims) {
  // §IV-A: leading dimensions adjusted to 500, 1000, 2000, 4000.
  const auto space = dgemm_reduced_space();
  EXPECT_EQ(space.cardinality(), 96u);
  std::set<std::int64_t> ns, ms, ks;
  for (const auto& c : space.enumerate()) {
    ns.insert(c.at("n"));
    ms.insert(c.at("m"));
    ks.insert(c.at("k"));
  }
  EXPECT_EQ(ns, (std::set<std::int64_t>{500, 1000, 2000, 4000}));
  EXPECT_EQ(ms, (std::set<std::int64_t>{512, 1024, 2048, 4096}));
  EXPECT_EQ(ks, (std::set<std::int64_t>{64, 128, 256, 512, 1024, 2048}));
}

TEST(DgemmSpaces, AllTableVOptimaAreInReducedSpace) {
  const auto space = dgemm_reduced_space();
  const auto configs = space.enumerate();
  const auto contains = [&](std::int64_t n, std::int64_t m, std::int64_t k) {
    return std::find(configs.begin(), configs.end(), dgemm_config(n, m, k)) !=
           configs.end();
  };
  EXPECT_TRUE(contains(1000, 4096, 128));
  EXPECT_TRUE(contains(2000, 2048, 64));
  EXPECT_TRUE(contains(2000, 4096, 128));
  EXPECT_TRUE(contains(4000, 2048, 128));
  EXPECT_TRUE(contains(4000, 512, 128));
  EXPECT_TRUE(contains(4000, 1024, 128));
  EXPECT_TRUE(contains(500, 4096, 1024));  // the 2695v4 C+I mistuned pick
}

TEST(DgemmSpaces, ScaledSpaceDegeneratesToReducedAtScaleOne) {
  // Octave boundaries are exact (2^j is exact in double), so scale 1 must
  // reproduce the paper's reduced grid value-for-value, not just in count.
  const auto scaled = dgemm_scaled_space(1);
  const auto reduced = dgemm_reduced_space();
  EXPECT_EQ(scaled.cardinality(), 96u);
  EXPECT_EQ(scaled.enumerate(), reduced.enumerate());
}

TEST(DgemmSpaces, ScaledSpaceCardinalitiesAndMonotonicity) {
  EXPECT_EQ(dgemm_scaled_space(2).cardinality(), 7u * 7u * 11u);
  EXPECT_EQ(dgemm_scaled_space(6).cardinality(), 19u * 19u * 31u);  // 11191
  const auto fine = dgemm_scaled_space(6);
  for (const auto& range : fine.ranges()) {
    for (std::size_t i = 1; i < range.size(); ++i) {
      EXPECT_LT(range.values()[i - 1], range.values()[i]) << range.name();
    }
  }
}

TEST(DgemmSpaces, ScaledSpaceContainsReducedEndpoints) {
  // Every whole-octave value of the reduced grid survives any subdivision.
  const auto space = dgemm_scaled_space(6);
  const auto configs = space.enumerate();
  EXPECT_NE(std::find(configs.begin(), configs.end(),
                      dgemm_config(500, 512, 64)),
            configs.end());
  EXPECT_NE(std::find(configs.begin(), configs.end(),
                      dgemm_config(4000, 4096, 2048)),
            configs.end());
}

TEST(DgemmSpaces, ScaledSpaceRejectsBadScale) {
  EXPECT_THROW((void)dgemm_scaled_space(0), std::invalid_argument);
  EXPECT_THROW((void)dgemm_scaled_space(-3), std::invalid_argument);
}

TEST(DgemmSpaces, SquareConstraintSpace) {
  // §IV-A constraint-specification study: m == n.
  const auto space = dgemm_square_space();
  EXPECT_EQ(space.cardinality(), 4u * 6u);  // 4 square sizes x 6 k values
  for (const auto& c : space.enumerate()) EXPECT_EQ(c.at("m"), c.at("n"));
}

TEST(TriadSpace, PaperSweepRange) {
  // §IV-B: working sets from 3 KiB to 768 MiB, doubling.
  const auto space = triad_space();
  const auto configs = space.enumerate();
  ASSERT_FALSE(configs.empty());
  EXPECT_EQ(triad_working_set(configs.front()).value, util::Bytes::KiB(3).value);
  EXPECT_EQ(triad_working_set(configs.back()).value, util::Bytes::MiB(768).value);
  EXPECT_EQ(configs.size(), 19u);  // 2^7 .. 2^25 elements
  for (std::size_t i = 1; i < configs.size(); ++i) {
    EXPECT_EQ(configs[i].at("N"), 2 * configs[i - 1].at("N"));
  }
}

TEST(TriadSpace, CustomRange) {
  const auto space = triad_space(util::Bytes::KiB(24), util::Bytes::KiB(96));
  const auto configs = space.enumerate();
  ASSERT_EQ(configs.size(), 3u);
  EXPECT_EQ(triad_working_set(configs[0]).value, util::Bytes::KiB(24).value);
  EXPECT_EQ(triad_working_set(configs[2]).value, util::Bytes::KiB(96).value);
}

// A bound near 2^64 bytes (`--max-mib 17592186044415`) ends the sweep at
// the largest doubling whose working set fits, instead of overflowing.
TEST(TriadSpace, BoundNearTwoToThe64Ends) {
  const auto configs =
      triad_space(util::Bytes{0}, util::Bytes::MiB(17592186044415ull)).enumerate();
  ASSERT_EQ(configs.size(), 57u);  // 2^3 .. 2^59 elements
  EXPECT_EQ(configs.front().at("N"), 8);
  EXPECT_EQ(configs.back().at("N"), std::int64_t{1} << 59);
}

TEST(TriadSpace, WorkingSetFormula) {
  // 3 vectors of doubles: 24 bytes per element (§III-B).
  EXPECT_EQ(triad_working_set(triad_config(1000)).value, 24000u);
}

}  // namespace
}  // namespace rooftune::core

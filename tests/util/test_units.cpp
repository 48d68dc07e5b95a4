#include "util/units.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <tuple>

namespace rooftune::util {
namespace {

TEST(Units, SecondsArithmetic) {
  Seconds a{1.5}, b{0.5};
  EXPECT_DOUBLE_EQ((a + b).value, 2.0);
  EXPECT_DOUBLE_EQ((a - b).value, 1.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value, 3.0);
  EXPECT_DOUBLE_EQ((a / 3.0).value, 0.5);
  EXPECT_DOUBLE_EQ(a / b, 3.0);
  a += b;
  EXPECT_DOUBLE_EQ(a.value, 2.0);
  EXPECT_LT(b, a);
}

TEST(Units, BytesFactories) {
  EXPECT_EQ(Bytes::KiB(3).value, 3072u);
  EXPECT_EQ(Bytes::MiB(1).value, 1048576u);
  EXPECT_EQ(Bytes::GiB(2).value, 2147483648u);
  EXPECT_EQ((Bytes{10} + Bytes{5}).value, 15u);
  EXPECT_EQ((Bytes{10} * 3).value, 30u);
}

TEST(Units, RateComputesGFlops) {
  // 2e9 FLOPs in 1 second = 2 GFLOP/s.
  EXPECT_DOUBLE_EQ(rate(Flops{2e9}, Seconds{1.0}).value, 2.0);
  EXPECT_DOUBLE_EQ(rate(Flops{1e9}, Seconds{0.5}).value, 2.0);
}

TEST(Units, BandwidthComputesGBps) {
  EXPECT_DOUBLE_EQ(bandwidth(Bytes{3'000'000'000ull}, Seconds{1.0}).value, 3.0);
  EXPECT_DOUBLE_EQ(bandwidth(Bytes{1'500'000'000ull}, Seconds{0.5}).value, 3.0);
}

TEST(Units, TriadIntensityIsOneTwelfth) {
  // Paper §I: TRIAD does 2 FLOPs per 24 bytes = 1/12 FLOP/byte.
  const Intensity i = intensity(Flops{2.0}, Bytes{24});
  EXPECT_NEAR(i.value, 1.0 / 12.0, 1e-15);
}

struct ParseCase {
  const char* text;
  std::uint64_t expected;
};

// Names the ctest case after the input text; the default printer would dump
// the struct's bytes, pointer included, which change from run to run.
void PrintTo(const ParseCase& c, std::ostream* os) { *os << c.text; }

class ParseBytesTest : public ::testing::TestWithParam<ParseCase> {};

TEST_P(ParseBytesTest, Parses) {
  EXPECT_EQ(parse_bytes(GetParam().text).value, GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(
    Suffixes, ParseBytesTest,
    ::testing::Values(ParseCase{"0", 0}, ParseCase{"123", 123},
                      ParseCase{"123B", 123}, ParseCase{"3KiB", 3072},
                      ParseCase{"3K", 3072}, ParseCase{"768MiB", 805306368},
                      ParseCase{"768 MiB", 805306368},
                      ParseCase{"1.5KiB", 1536}, ParseCase{"2GiB", 2147483648},
                      ParseCase{"0.5M", 524288}));

TEST(ParseBytes, RejectsMalformed) {
  EXPECT_THROW(parse_bytes(""), std::invalid_argument);
  EXPECT_THROW(parse_bytes("abc"), std::invalid_argument);
  EXPECT_THROW(parse_bytes("12XB"), std::invalid_argument);
  EXPECT_THROW(parse_bytes("-5K"), std::invalid_argument);
}

// NaN, infinity and sizes at or past 2^64 bytes used to come back from
// std::llround as 2^63 bytes.
TEST(ParseBytes, RejectsOutOfRangeSizes) {
  for (const char* text : {"1e30K", "20000000000G", "nan", "NaN", "inf", "infinity",
                           "18446744073709551616", "17179869184G"}) {
    try {
      (void)parse_bytes(text);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(text), std::string::npos) << e.what();
    }
  }
  // The largest sizes below 2^64 still parse.
  EXPECT_EQ(parse_bytes("17179869183G").value, 17179869183ull << 30);
  EXPECT_EQ(parse_bytes("18446744073709549568").value, 18446744073709549568ull);
}

TEST(FormatBytes, PicksHumanUnit) {
  EXPECT_EQ(format_bytes(Bytes{512}), "512 B");
  EXPECT_EQ(format_bytes(Bytes::KiB(3)), "3.0 KiB");
  EXPECT_EQ(format_bytes(Bytes::MiB(768)), "768.0 MiB");
  EXPECT_EQ(format_bytes(Bytes::GiB(2)), "2.0 GiB");
}

TEST(FormatSeconds, PicksHumanUnit) {
  EXPECT_EQ(format_seconds(Seconds{0.0000005}), "0.5us");
  EXPECT_EQ(format_seconds(Seconds{0.0123}), "12.30ms");
  EXPECT_EQ(format_seconds(Seconds{3.456}), "3.46s");
  EXPECT_EQ(format_seconds(Seconds{127.0}), "2m07s");
  EXPECT_EQ(format_seconds(Seconds{-3.0}), "-3.00s");
}

}  // namespace
}  // namespace rooftune::util

#include "simhw/machine.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rooftune::simhw {
namespace {

// Paper Table III: theoretical peaks implied by Eqs. 9-11 and Table II.
struct PeakCase {
  const char* machine;
  double ft_single;   // GFLOP/s, single socket (Table III convention)
  double bt_system;   // GB/s, full system (Table III convention)
};

// Names the ctest case after the machine; the default printer would dump
// the struct's bytes, pointer included, which change from run to run.
void PrintTo(const PeakCase& c, std::ostream* os) { *os << c.machine; }

class TheoreticalPeakTest : public ::testing::TestWithParam<PeakCase> {};

TEST_P(TheoreticalPeakTest, MatchesTableIII) {
  const auto& c = GetParam();
  const MachineSpec m = machine_by_name(c.machine);
  EXPECT_NEAR(m.theoretical_flops(1).value, c.ft_single, 1e-9);
  EXPECT_NEAR(m.theoretical_flops(2).value, 2.0 * c.ft_single, 1e-9);
  EXPECT_NEAR(m.theoretical_bandwidth(2).value, c.bt_system, 1e-9);
  EXPECT_NEAR(m.theoretical_bandwidth(1).value, c.bt_system / 2.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(PaperMachines, TheoreticalPeakTest,
                         ::testing::Values(PeakCase{"2650v4", 422.4, 76.8},
                                           PeakCase{"2695v4", 604.8, 76.8},
                                           PeakCase{"gold6132", 1164.8, 127.968},
                                           PeakCase{"gold6148", 1536.0, 127.968}));

TEST(MachineSpec, OpsPerCycle) {
  const MachineSpec avx2 = machine_by_name("2650v4");
  const MachineSpec avx512 = machine_by_name("gold6132");
  // Paper Eq. 10: AVX512 = 16 DP ops/cycle per unit; AVX2 = 8.
  EXPECT_EQ(avx2.ops_per_cycle(), 8 * avx2.fma_units);
  EXPECT_EQ(avx512.ops_per_cycle(), 16 * avx512.fma_units);
  // Single precision doubles the lane count.
  EXPECT_EQ(avx512.ops_per_cycle(Precision::Single),
            2 * avx512.ops_per_cycle(Precision::Double));
}

TEST(MachineSpec, SilverEq12SinglePrecisionPeak) {
  // Paper Eq. 12: F_t = 2.1 * 8 * 32 * 1 * 2 = 1075.2 SP GFLOP/s (both
  // sockets; the Silver 4110 has a single FMA unit).
  const MachineSpec silver = machine_by_name("silver4110");
  EXPECT_EQ(silver.fma_units, 1);
  EXPECT_NEAR(silver.theoretical_flops(2, Precision::Single).value, 1075.2, 1e-9);
  EXPECT_NEAR(silver.theoretical_flops(2, Precision::Double).value, 537.6, 1e-9);
}

TEST(MachineSpec, L3Capacity) {
  const MachineSpec m = machine_by_name("2650v4");
  EXPECT_EQ(m.l3_capacity(1).value, util::Bytes::MiB(30).value);
  EXPECT_EQ(m.l3_capacity(2).value, util::Bytes::MiB(60).value);
}

TEST(MachineSpec, InvalidSocketCountsThrow) {
  const MachineSpec m = machine_by_name("2650v4");
  EXPECT_THROW(static_cast<void>(m.theoretical_flops(0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(m.theoretical_flops(3)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(m.theoretical_bandwidth(0)), std::invalid_argument);
}

TEST(MachineRegistry, LookupIsCaseInsensitive) {
  EXPECT_EQ(machine_by_name("GOLD6132").name, "gold6132");
  EXPECT_EQ(machine_by_name(" 2650v4 ").name, "2650v4");
}

TEST(MachineRegistry, UnknownNameThrows) {
  EXPECT_THROW(machine_by_name("epyc7742"), std::invalid_argument);
}

TEST(MachineRegistry, PaperMachinesAreFour) {
  EXPECT_EQ(paper_machines().size(), 4u);
  EXPECT_EQ(all_machines().size(), 5u);
}

TEST(MachineSpec, TotalCores) {
  EXPECT_EQ(machine_by_name("gold6148").total_cores(), 40);
}

}  // namespace
}  // namespace rooftune::simhw

#include <gtest/gtest.h>

#include <stdexcept>

#include "simhw/machine.hpp"

namespace rooftune::simhw {
namespace {

TEST(ParseMachineSpec, FullSpec) {
  const auto m =
      parse_machine_spec("epyc7543:2.8:32:2:avx2:2:256MiB:3200:8");
  EXPECT_EQ(m.name, "epyc7543");
  EXPECT_DOUBLE_EQ(m.cpu_freq_ghz, 2.8);
  EXPECT_EQ(m.cores_per_socket, 32);
  EXPECT_EQ(m.sockets, 2);
  EXPECT_EQ(m.avx, AvxType::Avx2);
  EXPECT_EQ(m.fma_units, 2);
  EXPECT_EQ(m.l3_per_socket.value, util::Bytes::MiB(256).value);
  EXPECT_DOUBLE_EQ(m.dram_freq_mhz, 3200.0);
  EXPECT_EQ(m.dram_channels_system, 8);
}

TEST(ParseMachineSpec, PeaksComputeCorrectly) {
  // 2.8 GHz * 32 cores * 8 ops * 2 units = 1433.6 GFLOP/s per socket.
  const auto m = parse_machine_spec("epyc:2.8:32:2:avx2:2:256MiB:3200:8");
  EXPECT_NEAR(m.theoretical_flops(1).value, 1433.6, 1e-9);
  // 3200 MT/s * 8 channels * 8 B = 204.8 GB/s system.
  EXPECT_NEAR(m.theoretical_bandwidth(2).value, 204.8, 1e-9);
}

TEST(ParseMachineSpec, Avx512AndWhitespaceTolerant) {
  const auto m = parse_machine_spec(" spr : 2.0 : 48 : 1 : AVX512 : 2 : 105MiB : 4800 : 8 ");
  EXPECT_EQ(m.name, "spr");
  EXPECT_EQ(m.avx, AvxType::Avx512);
  EXPECT_EQ(m.sockets, 1);
}

TEST(ParseMachineSpec, ReproducesBuiltinPeaks) {
  const auto m = parse_machine_spec("x2650v4:2.2:12:2:avx2:2:30MiB:2400:4");
  const auto builtin = machine_by_name("2650v4");
  EXPECT_DOUBLE_EQ(m.theoretical_flops(1).value,
                   builtin.theoretical_flops(1).value);
  EXPECT_DOUBLE_EQ(m.theoretical_bandwidth(2).value,
                   builtin.theoretical_bandwidth(2).value);
}

TEST(ParseMachineSpec, Rejections) {
  EXPECT_THROW(parse_machine_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_machine_spec("too:few:fields"), std::invalid_argument);
  EXPECT_THROW(parse_machine_spec("n:abc:12:2:avx2:2:30MiB:2400:4"),
               std::invalid_argument);  // bad frequency
  EXPECT_THROW(parse_machine_spec("n:2.2:12:2:sse:2:30MiB:2400:4"),
               std::invalid_argument);  // unknown ISA
  EXPECT_THROW(parse_machine_spec("n:2.2:12:2:avx2:2:30XB:2400:4"),
               std::invalid_argument);  // bad size suffix
  EXPECT_THROW(parse_machine_spec("n:2.2:0:2:avx2:2:30MiB:2400:4"),
               std::invalid_argument);  // zero cores
  EXPECT_THROW(parse_machine_spec("n:nan:12:2:avx2:2:30MiB:2400:4"),
               std::invalid_argument);  // NaN frequency
  EXPECT_THROW(parse_machine_spec(":2.2:12:2:avx2:2:30MiB:2400:4"),
               std::invalid_argument);  // empty name
}

}  // namespace
}  // namespace rooftune::simhw

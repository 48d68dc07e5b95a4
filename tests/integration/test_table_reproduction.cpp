// ctest pins for the remaining paper tables: TRIAD bandwidths (Table VI)
// and the technique-time ordering on all four machines (Tables VIII-XI).
// The bench binaries print these with full paper-vs-measured detail; the
// tests here guard the reproduction against calibration regressions.

#include <gtest/gtest.h>

#include <map>

#include "core/autotuner.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "roofline/builder.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune {
namespace {

// ---- Table VI ---------------------------------------------------------------

struct TriadCase {
  const char* machine;
  int sockets;
  double dram;  // Table VI B_DRAM
  double l3;    // Table VI B_L3
};

// Names the ctest case after the machine; the default printer would dump
// the struct's bytes, pointer included, which change from run to run.
void PrintTo(const TriadCase& c, std::ostream* os) {
  *os << c.machine << "-S" << c.sockets;
}

class TableVIReproduction : public ::testing::TestWithParam<TriadCase> {};

TEST_P(TableVIReproduction, BandwidthsWithin3Percent) {
  const auto& c = GetParam();
  const auto machine = simhw::machine_by_name(c.machine);
  simhw::SimOptions sim;
  sim.sockets_used = c.sockets;
  sim.affinity = c.sockets == 1 ? util::AffinityPolicy::Close
                                : util::AffinityPolicy::Spread;
  simhw::SimTriadBackend backend(machine, sim);

  roofline::BuilderOptions options;
  options.prune_min_count = 10;
  auto [l3, dram] = roofline::measure_triad_ceilings(
      backend, "t", machine.theoretical_bandwidth(c.sockets),
      machine.l3_capacity(c.sockets), options);

  EXPECT_NEAR(dram.value.value, c.dram, 0.03 * c.dram);
  EXPECT_NEAR(l3.value.value, c.l3, 0.03 * c.l3);
  // The paper's signature observation: measured DRAM >= ~theoretical
  // (>100 % everywhere except the 2695v4-S2's 99.4 %).
  EXPECT_GT(dram.value.value, 0.96 * dram.theoretical.value);
}

INSTANTIATE_TEST_SUITE_P(PaperTableVI, TableVIReproduction,
                         ::testing::Values(TriadCase{"2650v4", 1, 40.42, 256.07},
                                           TriadCase{"2650v4", 2, 80.65, 452.05},
                                           TriadCase{"2695v4", 1, 43.29, 371.41},
                                           TriadCase{"2695v4", 2, 76.32, 661.68},
                                           TriadCase{"gold6132", 1, 68.32, 422.87},
                                           TriadCase{"gold6132", 2, 132.18, 814.82},
                                           TriadCase{"gold6148", 1, 74.16, 547.11},
                                           TriadCase{"gold6148", 2, 139.80, 1000.10}));

// ---- Tables VIII-XI time ordering on every machine ---------------------------

class TechniqueOrdering : public ::testing::TestWithParam<const char*> {};

TEST_P(TechniqueOrdering, HoldsOnEveryMachine) {
  const auto machine = simhw::machine_by_name(GetParam());
  const std::uint64_t min_count = machine.name == "2695v4" ? 100 : 2;

  std::map<core::Technique, double> time;
  for (const auto technique : {core::Technique::Default, core::Technique::Confidence,
                               core::Technique::CInner, core::Technique::CIOuter,
                               core::Technique::Single}) {
    simhw::SimOptions sim;
    sim.sockets_used = 1;
    simhw::SimDgemmBackend backend(machine, sim);
    const auto options = core::technique_options(technique, {}, 0, min_count);
    time[technique] = core::Autotuner(core::dgemm_reduced_space(), options)
                          .run(backend)
                          .total_time.value;
  }

  EXPECT_GT(time[core::Technique::Default], time[core::Technique::Confidence]);
  EXPECT_GT(time[core::Technique::Confidence], time[core::Technique::CInner]);
  EXPECT_GT(time[core::Technique::CInner], time[core::Technique::CIOuter]);
  EXPECT_GT(time[core::Technique::CIOuter], time[core::Technique::Single]);
  // Speedup magnitude: an order of magnitude at least, everywhere.
  EXPECT_GT(time[core::Technique::Default] / time[core::Technique::CIOuter], 10.0);
}

INSTANTIATE_TEST_SUITE_P(AllMachines, TechniqueOrdering,
                         ::testing::Values("2650v4", "2695v4", "gold6132",
                                           "gold6148"));

}  // namespace
}  // namespace rooftune

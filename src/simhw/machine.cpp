#include "simhw/machine.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "util/strings.hpp"

namespace rooftune::simhw {

const char* to_string(AvxType avx) {
  switch (avx) {
    case AvxType::Avx2: return "AVX2";
    case AvxType::Avx512: return "AVX512";
  }
  return "?";
}

int MachineSpec::ops_per_cycle(Precision precision) const {
  const int vector_bits = (avx == AvxType::Avx512) ? 512 : 256;
  const int element_bits = (precision == Precision::Double) ? 64 : 32;
  // lanes * 2 FLOPs per FMA * FMA pipes (paper Eq. 10 generalized).
  return vector_bits / element_bits * 2 * fma_units;
}

util::GFlops MachineSpec::theoretical_flops(int sockets_used, Precision precision) const {
  if (sockets_used < 1 || sockets_used > sockets) {
    throw std::invalid_argument("theoretical_flops: invalid socket count for " + name);
  }
  return util::GFlops{cpu_freq_ghz * cores_per_socket * ops_per_cycle(precision) *
                      sockets_used};
}

util::GBps MachineSpec::theoretical_bandwidth(int sockets_used) const {
  if (sockets_used < 1 || sockets_used > sockets) {
    throw std::invalid_argument("theoretical_bandwidth: invalid socket count for " + name);
  }
  // Eq. 11 with the paper's system-wide channel count, scaled to the
  // fraction of sockets in use.
  const double full = dram_freq_mhz * 1e6 * dram_channels_system * 8.0 / 1e9;
  return util::GBps{full * sockets_used / sockets};
}

util::Bytes MachineSpec::l3_capacity(int sockets_used) const {
  return util::Bytes{l3_per_socket.value * static_cast<std::uint64_t>(sockets_used)};
}

util::Bytes MachineSpec::l2_capacity(int sockets_used) const {
  return util::Bytes{l2_per_core.value *
                     static_cast<std::uint64_t>(cores_per_socket * sockets_used)};
}

util::Bytes MachineSpec::l1_capacity(int sockets_used) const {
  return util::Bytes{l1_per_core.value *
                     static_cast<std::uint64_t>(cores_per_socket * sockets_used)};
}

std::vector<MachineSpec> paper_machines() {
  // Table II.  fma_units = 2 on all four: Broadwell (2650/2695 v4) has two
  // 256-bit FMA pipes, Skylake Gold has two 512-bit pipes — this is what
  // makes the Eq. 9 results match Table III exactly.
  // Per-core caches: Broadwell has 256 KiB L2 + 32 KiB L1d per core,
  // Skylake-SP 1 MiB L2 + 32 KiB L1d (used only by the §VII inner-cache
  // extension; the paper's own tables never reference them).
  // TDP column: Intel ARK rated package power per socket.
  std::vector<MachineSpec> machines;
  machines.push_back({"2650v4", 2.2, 12, 2, AvxType::Avx2, 2,
                      util::Bytes::MiB(30), 2400.0, 4,
                      util::Bytes::KiB(256), util::Bytes::KiB(32), 105.0});
  machines.push_back({"2695v4", 2.1, 18, 2, AvxType::Avx2, 2,
                      util::Bytes::MiB(45), 2400.0, 4,
                      util::Bytes::KiB(256), util::Bytes::KiB(32), 120.0});
  machines.push_back({"gold6132", 2.6, 14, 2, AvxType::Avx512, 2,
                      util::Bytes{static_cast<std::uint64_t>(19.25 * 1024 * 1024)},
                      2666.0, 6, util::Bytes::MiB(1), util::Bytes::KiB(32),
                      140.0});
  machines.push_back({"gold6148", 2.4, 20, 2, AvxType::Avx512, 2,
                      util::Bytes{static_cast<std::uint64_t>(31.75 * 1024 * 1024)},
                      2666.0, 6, util::Bytes::MiB(1), util::Bytes::KiB(32),
                      150.0});
  return machines;
}

std::vector<MachineSpec> all_machines() {
  auto machines = paper_machines();
  // Xeon Silver 4110 (§VI-A / Eq. 12): one FMA unit, 8 cores, 2 sockets.
  machines.push_back({"silver4110", 2.1, 8, 2, AvxType::Avx512, 1,
                      util::Bytes::MiB(11), 2400.0, 6, util::Bytes::MiB(1),
                      util::Bytes::KiB(32), 85.0});
  return machines;
}

MachineSpec parse_machine_spec(const std::string& text) {
  const auto fields = util::split(text, ':');
  if (fields.size() != 9 && fields.size() != 10) {
    throw std::invalid_argument(
        "parse_machine_spec: expected 9 ':'-separated fields "
        "(name:freq:cores:sockets:avx:units:l3:dram_mts:channels) plus an "
        "optional :tdp_w, got " +
        std::to_string(fields.size()));
  }
  const auto number = [&](std::size_t i, const char* what) {
    try {
      return std::stod(util::trim(fields[i]));
    } catch (const std::exception&) {
      throw std::invalid_argument(std::string("parse_machine_spec: bad ") + what +
                                  " '" + fields[i] + "'");
    }
  };
  // Range-check before the cast: a double past the int range (1e30, inf,
  // nan) converts with undefined behaviour.
  const auto count = [&](std::size_t i, const char* what) {
    const double value = number(i, what);
    if (!(value >= 1.0 && value <= std::numeric_limits<int>::max())) {
      throw std::invalid_argument(std::string("parse_machine_spec: ") + what + " '" +
                                  util::trim(fields[i]) + "' is out of range [1, " +
                                  std::to_string(std::numeric_limits<int>::max()) + "]");
    }
    return static_cast<int>(value);
  };

  MachineSpec m;
  m.name = util::trim(fields[0]);
  if (m.name.empty()) throw std::invalid_argument("parse_machine_spec: empty name");
  m.cpu_freq_ghz = number(1, "frequency");
  m.cores_per_socket = count(2, "core count");
  m.sockets = count(3, "socket count");
  const std::string avx = util::to_lower(util::trim(fields[4]));
  if (avx == "avx2") {
    m.avx = AvxType::Avx2;
  } else if (avx == "avx512") {
    m.avx = AvxType::Avx512;
  } else {
    throw std::invalid_argument("parse_machine_spec: avx must be avx2|avx512, got '" +
                                fields[4] + "'");
  }
  m.fma_units = count(5, "fma unit count");
  m.l3_per_socket = util::parse_bytes(util::trim(fields[6]));
  m.dram_freq_mhz = number(7, "dram transfer rate");
  m.dram_channels_system = count(8, "channel count");
  if (fields.size() == 10) m.tdp_w = number(9, "tdp");

  if (!(m.cpu_freq_ghz > 0.0) || !(m.dram_freq_mhz > 0.0) || !(m.tdp_w >= 0.0)) {
    throw std::invalid_argument(
        "parse_machine_spec: frequency and transfer rate must be positive, tdp "
        "non-negative");
  }
  return m;
}

MachineSpec machine_by_name(const std::string& name) {
  const std::string key = util::to_lower(util::trim(name));
  for (auto& m : all_machines()) {
    if (util::to_lower(m.name) == key) return m;
  }
  throw std::invalid_argument("unknown machine '" + name +
                              "' (2650v4|2695v4|gold6132|gold6148|silver4110)");
}

}  // namespace rooftune::simhw

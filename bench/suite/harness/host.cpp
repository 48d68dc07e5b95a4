#include "harness/host.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>

namespace rooftune::suite {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

/// sysfs cache sizes read like "48K", "2048K" or "32M".
std::uint64_t parse_size(const std::string& text) {
  if (text.empty()) return 0;
  std::size_t used = 0;
  std::uint64_t value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    return 0;
  }
  const char unit = used < text.size() ? text[used] : '\0';
  if (unit == 'K') return value << 10;
  if (unit == 'M') return value << 20;
  if (unit == 'G') return value << 30;
  return value;
}

/// Elements per vector for a three-vector working set of `bytes`, in whole
/// 4096-element chunks (the non-temporal path's unit) once large.
std::int64_t triad_elements(std::uint64_t bytes) {
  const auto n = static_cast<std::int64_t>(bytes / 24);
  if (n >= 8192) return n / 4096 * 4096;
  return std::max<std::int64_t>(64, n / 64 * 64);
}

}  // namespace

std::vector<TriadRegime> triad_regimes(const HostFacts& host) {
  const std::uint64_t threads = host.nproc;
  const auto dram_n =
      static_cast<std::int64_t>((4 * host.llc_total() / 8 + 4095) / 4096 * 4096);
  return {{"l1", triad_elements(threads * host.l1d_bytes / 2)},
          {"l2", triad_elements(threads * host.l2_bytes / 2)},
          {"l3", triad_elements(host.llc_total() / 4)},
          {"dram", dram_n}};
}

HostFacts read_host_facts() {
  HostFacts facts;
  facts.nproc = std::max(1u, std::thread::hardware_concurrency());

  std::set<std::string> llc_instances;
  for (unsigned cpu = 0; cpu < facts.nproc; ++cpu) {
    const std::string base =
        "/sys/devices/system/cpu/cpu" + std::to_string(cpu) + "/cache/index";
    int deepest = 0;
    std::uint64_t deepest_size = 0;
    std::string deepest_shared;
    for (int index = 0; index < 8; ++index) {
      const std::string dir = base + std::to_string(index) + "/";
      const std::string level_text = read_line(dir + "level");
      if (level_text.empty()) break;
      const int level = std::stoi(level_text);
      const std::string type = read_line(dir + "type");
      const std::uint64_t size = parse_size(read_line(dir + "size"));
      if (type == "Instruction") continue;
      if (cpu == 0 && level == 1) facts.l1d_bytes = size;
      if (cpu == 0 && level == 2) facts.l2_bytes = size;
      if (level > deepest) {
        deepest = level;
        deepest_size = size;
        deepest_shared = read_line(dir + "shared_cpu_list");
      }
    }
    if (deepest >= 3) {
      facts.llc_level = deepest;
      facts.llc_bytes = std::max(facts.llc_bytes, deepest_size);
      llc_instances.insert(deepest_shared);
    }
  }
  if (facts.l1d_bytes == 0) facts.l1d_bytes = 32u << 10;
  if (facts.l2_bytes == 0) facts.l2_bytes = 1u << 20;
  if (facts.llc_bytes == 0) {
    facts.llc_level = 3;
    facts.llc_bytes = 32u << 20;
  }
  facts.llc_count = std::max<std::uint64_t>(1, llc_instances.size());
  return facts;
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double speed_probe_s() {
  constexpr std::uint32_t kKeys = 50000;
  static volatile std::size_t sink = 0;
  const auto start = std::chrono::steady_clock::now();
  {
    std::map<std::string, std::uint32_t> tree;
    for (std::uint32_t i = 0; i < kKeys; ++i) {
      tree[std::to_string(i * 2654435761u % 1000003u)] = i;
    }
    sink = sink + tree.size();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace rooftune::suite

#pragma once
// Host facts the suite records with every run and sizes native working
// sets from: logical CPUs, and the cache hierarchy as sysfs reports it.

#include <cstdint>
#include <string>
#include <vector>

namespace rooftune::suite {

struct HostFacts {
  unsigned nproc = 1;
  std::uint64_t l1d_bytes = 0;   ///< per core
  std::uint64_t l2_bytes = 0;    ///< per core
  std::uint64_t llc_bytes = 0;   ///< one last-level cache instance
  std::uint64_t llc_count = 0;   ///< distinct last-level cache instances
  int llc_level = 0;

  /// Sum of every last-level cache the run can use.
  [[nodiscard]] std::uint64_t llc_total() const { return llc_bytes * llc_count; }
};

/// A TRIAD working-set regime: elements per vector (three vectors).
struct TriadRegime {
  const char* name;  ///< "l1", "l2", "l3", "dram"
  std::int64_t n;
};

/// Working sets per regime, from the cache sizes: half of every core's L1d
/// and L2 (OpenMP's static schedule gives each thread its own slice), a
/// quarter of the last-level cache, and DRAM vectors each at least four
/// times the sum of the last-level caches.
std::vector<TriadRegime> triad_regimes(const HostFacts& host);

/// Read /sys/devices/system/cpu/cpu*/cache.  Levels sysfs does not report
/// fall back to conservative defaults (32 KiB L1d, 1 MiB L2, 32 MiB LLC) so
/// the working-set sizing still produces the right regimes.
HostFacts read_host_facts();

/// Peak resident set size of this process so far, in MiB (getrusage).
double peak_rss_mib();

/// Seconds one fixed piece of bench-local work takes right now: ordered-map
/// inserts of decimal-string keys, then freeing the map — the allocation,
/// string comparison and branching the tuner's host code is made of.  The
/// host's other tenants change how fast a CPU runs by up to 4x, in
/// stretches that can cover a whole run; the probe's time follows that
/// speed and nothing in src/.
double speed_probe_s();

/// speed_probe_s() at the reference host's typical speed (README.md, "Host
/// and baseline").  A time divided by the probes around it and multiplied by
/// this reads as seconds on the reference host.
constexpr double kSpeedProbeReferenceS = 0.02;

}  // namespace rooftune::suite

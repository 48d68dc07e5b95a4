// Bit-for-bit pins of the simulated backends.  The other simhw tests check
// properties (rates track the surface, counters recover the OI, ...); this
// one replays a fixed script of invocations per scenario and compares a
// digest of everything the backend reports — every sample's value and
// kernel time, each run_batch, the clock, last_invocation_timing, counters,
// telemetry, arena stats, the per-iteration work and analytic_intensity —
// against the digest recorded when the scenario was pinned.  Any change in
// RNG draw order, clock charge order or floating-point expression shows up
// here, even where every property test still passes.
//
// The transcript is hexfloat text, so a failure prints it whole: diff it
// against the same test's output on a build that passes to find the first
// value that moved.  Digests pin x86-64 IEEE double arithmetic and glibc's
// libm (exp, log, pow).

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune::simhw {
namespace {

enum class Kernel { Dgemm, Triad, Spmv, Stencil };

struct Scenario {
  const char* name;
  Kernel kernel;
  const char* machine;
  SimOptions options;
  std::uint64_t digest;
  std::int64_t grid_n = 4096;  ///< stencil only
};

std::unique_ptr<SimBackendBase> make(const Scenario& s) {
  const MachineSpec machine = machine_by_name(s.machine);
  switch (s.kernel) {
    case Kernel::Dgemm: return std::make_unique<SimDgemmBackend>(machine, s.options);
    case Kernel::Triad: return std::make_unique<SimTriadBackend>(machine, s.options);
    case Kernel::Spmv: return std::make_unique<SimSpmvBackend>(machine, s.options);
    case Kernel::Stencil:
      return std::make_unique<SimStencilBackend>(machine, s.options, s.grid_n);
  }
  return nullptr;
}

/// Configurations each script runs: a cache-resident and a spilled one per
/// kernel (so the L3-spill scale and the counter clamp both engage).
std::vector<core::Configuration> configs(Kernel kernel) {
  switch (kernel) {
    case Kernel::Dgemm:
      return {core::dgemm_config(1000, 1024, 128), core::dgemm_config(4096, 8192, 2048),
              core::dgemm_config(2000, 4096, 128)};
    case Kernel::Triad:
      return {core::Configuration({{"N", 65536}}),
              core::Configuration({{"N", 33554432}, {"nt", 1}}),
              core::Configuration({{"N", 65536}, {"nt", 1}})};
    case Kernel::Spmv:
      return {core::Configuration({{"rows", 4096}, {"format", 0}, {"block", 1}}),
              core::Configuration({{"rows", 1048576}, {"format", 2}, {"block", 4}}),
              core::Configuration({{"rows", 65536}, {"format", 1}, {"block", 8}})};
    case Kernel::Stencil:
      return {core::Configuration({{"ti", 64}, {"tj", 256}, {"unroll", 4}}),
              core::Configuration({{"ti", 1024}, {"tj", 512}, {"unroll", 1}}),
              core::Configuration({{"ti", 8}, {"tj", 4}, {"unroll", 2}})};
  }
  return {};
}

/// Configurations outside the model: analytic_intensity must be none.
std::vector<core::Configuration> invalid_configs(Kernel kernel) {
  switch (kernel) {
    case Kernel::Dgemm:
      return {core::dgemm_config(0, 1024, 128),
              core::Configuration({{"n", 1000}, {"m", 1024}})};
    case Kernel::Triad: return {core::Configuration({{"n", 1000}})};
    case Kernel::Spmv:
      return {core::Configuration({{"rows", 4096}, {"format", 3}, {"block", 1}}),
              core::Configuration({{"rows", 4096}, {"format", 0}, {"block", 0}}),
              core::Configuration({{"rows", 0}, {"format", 0}, {"block", 1}}),
              core::Configuration({{"rows", 4096}, {"format", 0}})};
    case Kernel::Stencil:
      return {core::Configuration({{"ti", 64}, {"tj", 256}, {"unroll", 3}}),
              core::Configuration({{"ti", 0}, {"tj", 256}, {"unroll", 1}}),
              core::Configuration({{"ti", 64}, {"tj", 256}})};
  }
  return {};
}

class Transcript {
 public:
  void put(const char* label, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, " %a", v);
    text_ += label;
    text_ += buf;
    text_ += '\n';
  }
  void put(const char* label, std::uint64_t v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, " %" PRIu64, v);
    text_ += label;
    text_ += buf;
    text_ += '\n';
  }
  void put(const char* label, const std::optional<double>& v) {
    if (v.has_value()) {
      put(label, *v);
    } else {
      text_ += label;
      text_ += " none\n";
    }
  }
  void line(const std::string& s) { text_ += s + '\n'; }

  [[nodiscard]] const std::string& text() const { return text_; }
  /// FNV-1a over the transcript text.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : text_) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    return h;
  }

 private:
  std::string text_;
};

void record_after_invocation(const SimBackendBase& backend, Transcript& t) {
  t.put("now", backend.now().value);
  const auto timing = backend.last_invocation_timing();
  t.line(timing ? "timing" : "timing none");
  if (timing) {
    t.put(" setup", timing->setup.value);
    t.put(" wall", timing->wall.value);
  }
  const auto counters = backend.last_invocation_counters();
  t.line(counters ? "counters" : "counters none");
  if (counters) {
    t.put(" cycles", counters->cycles);
    t.put(" instructions", counters->instructions);
    t.put(" llc_misses", counters->llc_misses);
    t.put(" enabled_ns", counters->time_enabled_ns);
    t.put(" running_ns", counters->time_running_ns);
  }
  const auto span = backend.last_invocation_telemetry();
  t.line(span ? "telemetry" : "telemetry none");
  if (span) {
    t.put(" freq_begin", span->freq_begin_mhz);
    t.put(" freq_end", span->freq_end_mhz);
    t.put(" freq_mean", span->freq_mean_mhz);
    t.put(" temp", span->temp_c);
    t.put(" pkg_j", span->pkg_joules);
    t.put(" dram_j", span->dram_joules);
  }
  const auto arena = backend.arena_stats();
  t.line(arena ? "arena" : "arena none");
  if (arena) {
    t.put(" leases", arena->leases);
    t.put(" hits", arena->slab_hits);
    t.put(" misses", arena->slab_misses);
    t.put(" allocations", arena->allocations);
    t.put(" bytes_leased", arena->bytes_leased);
    t.put(" bytes_reserved", arena->bytes_reserved);
    t.put(" pages", arena->pages_touched);
  }
  t.put("flops_per_iteration", backend.flops_per_iteration());
  t.put("bytes_per_iteration", backend.bytes_per_iteration());
}

/// The fixed script: before any invocation, then for every configuration
/// two invocations (indices 0 and 5) of three single iterations and one
/// batch of four, then the analytic intensity of valid and invalid
/// configurations.
Transcript replay_script(const Scenario& s) {
  const auto backend = make(s);
  Transcript t;
  t.line(backend->metric_name());
  t.put("flops_per_iteration", backend->flops_per_iteration());
  t.put("bytes_per_iteration", backend->bytes_per_iteration());
  for (const auto& config : configs(s.kernel)) {
    t.line(config.to_string());
    for (const std::uint64_t invocation : {0ull, 5ull}) {
      backend->begin_invocation(config, invocation);
      t.put("begin", backend->now().value);
      for (int i = 0; i < 3; ++i) {
        const core::Sample sample = backend->run_iteration();
        t.put("sample", sample.value);
        t.put(" kernel_s", sample.kernel_time.value);
      }
      const core::BatchSample batch = backend->run_batch(4);
      t.put("batch", batch.value);
      t.put(" kernel_s", batch.kernel_time.value);
      t.put(" count", batch.count);
      backend->end_invocation();
      record_after_invocation(*backend, t);
    }
    t.put("analytic_intensity", backend->analytic_intensity(config));
  }
  for (const auto& config : invalid_configs(s.kernel)) {
    t.put("invalid_intensity", backend->analytic_intensity(config));
  }
  return t;
}

SimOptions defaults() { return SimOptions{}; }

SimOptions dual_socket() {
  SimOptions o;
  o.sockets_used = 2;
  o.seed = 7;
  return o;
}

SimOptions counters() {
  SimOptions o;
  o.counter_model = true;
  return o;
}

SimOptions timer_overhead() {
  SimOptions o;
  o.timer_overhead_s = 2e-6;
  return o;
}

SimOptions arena() {
  SimOptions o;
  o.arena_reuse = true;
  o.setup_overhead_s = 0.001;
  return o;
}

SimOptions no_arena_setup() {
  SimOptions o;
  o.setup_overhead_s = 0.002;
  return o;
}

SimOptions telemetry() {
  SimOptions o;
  o.thermal_tau_s = 0.2;
  o.throttle_factor = 0.8;
  o.pkg_power_w = 105.0;
  o.dram_power_w = 12.0;
  return o;
}

SimOptions stream_kernel(stream::Kernel kernel) {
  SimOptions o;
  o.stream_kernel = kernel;
  return o;
}

SimOptions inner_caches() {
  SimOptions o;
  o.model_inner_caches = true;
  return o;
}

SimOptions everything() {
  SimOptions o = counters();
  o.timer_overhead_s = 1e-6;
  o.arena_reuse = true;
  o.setup_overhead_s = 0.001;
  o.thermal_tau_s = 0.5;
  o.throttle_factor = 0.9;
  o.pkg_power_w = 150.0;
  return o;
}

const Scenario kScenarios[] = {
    {"dgemm-defaults", Kernel::Dgemm, "gold6148", defaults(), 0x5b6862c51bc23072},
    {"dgemm-dual-socket", Kernel::Dgemm, "2650v4", dual_socket(), 0xa67fe9b04148b82c},
    {"dgemm-counters", Kernel::Dgemm, "gold6148", counters(), 0x28ed19dba083d007},
    {"dgemm-timer-overhead", Kernel::Dgemm, "gold6132", timer_overhead(),
      0xa2ae9fecdc627e64},
    {"dgemm-arena", Kernel::Dgemm, "gold6148", arena(), 0xe3ade95384fb648f},
    {"dgemm-setup-no-arena", Kernel::Dgemm, "gold6148", no_arena_setup(),
      0x117ccaa2d730408f},
    {"dgemm-telemetry", Kernel::Dgemm, "2695v4", telemetry(), 0x7e7e2317012cbc11},
    {"dgemm-everything", Kernel::Dgemm, "gold6148", everything(), 0x6001530d1f33a98},
    {"triad-defaults", Kernel::Triad, "gold6148", defaults(), 0xe396d87995fb698e},
    {"triad-dual-socket", Kernel::Triad, "2650v4", dual_socket(), 0x91cbbe984aa386c7},
    {"triad-counters", Kernel::Triad, "gold6148", counters(), 0x23ec43efa860d225},
    {"triad-timer-overhead", Kernel::Triad, "gold6132", timer_overhead(),
      0x4f346f69af82e857},
    {"triad-arena", Kernel::Triad, "gold6148", arena(), 0xf17d161ae1b6823e},
    {"triad-telemetry", Kernel::Triad, "2695v4", telemetry(), 0x1b8e4f01582230cb},
    {"triad-copy", Kernel::Triad, "gold6148", stream_kernel(stream::Kernel::Copy),
      0xbbc9ffa44a10c366},
    {"triad-scale", Kernel::Triad, "gold6148", stream_kernel(stream::Kernel::Scale),
      0xfe5960da890801b1},
    {"triad-add", Kernel::Triad, "gold6148", stream_kernel(stream::Kernel::Add),
      0xc07bf56cdb2555c4},
    {"triad-triad", Kernel::Triad, "2650v4", stream_kernel(stream::Kernel::Triad),
      0xa69d005a1f0a9ace},
    {"triad-inner-caches", Kernel::Triad, "gold6148", inner_caches(), 0x20558fec9c62f4fa},
    {"triad-everything", Kernel::Triad, "gold6148", everything(), 0xf465d28e333af631},
    {"spmv-defaults", Kernel::Spmv, "gold6148", defaults(), 0x87cdb8b0e653d4c4},
    {"spmv-counters", Kernel::Spmv, "gold6148", counters(), 0x9d645c970ff3e453},
    {"spmv-timer-overhead", Kernel::Spmv, "gold6132", timer_overhead(),
      0xe42c25af1bb2ca7f},
    {"spmv-arena", Kernel::Spmv, "gold6148", arena(), 0x3b844bdea9bd46a},
    {"spmv-telemetry", Kernel::Spmv, "2695v4", telemetry(), 0x41008148b44ea7d8},
    {"spmv-everything", Kernel::Spmv, "2650v4", everything(), 0x617b29f15d79483a},
    {"stencil-defaults", Kernel::Stencil, "gold6148", defaults(), 0x30e3d229ca299307},
    {"stencil-counters", Kernel::Stencil, "gold6148", counters(), 0x3792addac40d12e0},
    {"stencil-counters-grid1024", Kernel::Stencil, "gold6148", counters(),
      0x92d0e5b7aad3508b, 1024},
    {"stencil-timer-overhead", Kernel::Stencil, "gold6132", timer_overhead(),
      0x5405d73b3c07ddf0},
    {"stencil-arena", Kernel::Stencil, "gold6148", arena(), 0x9ad2043e6bbcbf47},
    {"stencil-telemetry", Kernel::Stencil, "2695v4", telemetry(), 0x7744f9b893ca4c60},
    {"stencil-everything", Kernel::Stencil, "2650v4", everything(),
      0xcecb6907dd56b5c7, 1024},
};

TEST(SimPinned, EveryScenarioMatchesItsRecordedDigest) {
  for (const Scenario& s : kScenarios) {
    const Transcript t = replay_script(s);
    EXPECT_EQ(t.digest(), s.digest)
        << s.name << ": digest 0x" << std::hex << t.digest() << std::dec
        << ", transcript:\n"
        << t.text();
  }
}

TEST(SimPinned, ScriptIsDeterministic) {
  for (const Scenario& s : kScenarios) {
    EXPECT_EQ(replay_script(s).text(), replay_script(s).text()) << s.name;
  }
}

}  // namespace
}  // namespace rooftune::simhw

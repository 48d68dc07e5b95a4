#pragma once
// Per-thread hardware performance counters via perf_event_open(2).
//
// The journal brackets every timed iteration loop with kernel_phase_begin /
// kernel_phase_end; this sampler turns those brackets into per-invocation
// counter deltas (cycles, retired instructions, LLC misses).  LLC misses
// x 64 bytes is the measured DRAM traffic, which gives a *measured*
// operational intensity to print next to the analytic TRIAD 1/12 and DGEMM
// 2nmk/8(nk+km+nm) — the cross-check §I of the paper motivates.
//
// Availability is never assumed: perf_event_open can fail for dozens of
// environment reasons (kernel.perf_event_paranoid too high, containers
// without CAP_PERFMON, missing PMU virtualization, non-Linux hosts).  Every
// failure degrades to a no-op sampler whose samples report invalid; the
// journal then simply omits counter fields.  docs/observability.md lists
// the knobs to turn counters on.

#include <cstdint>

namespace rooftune::trace {

/// Counter deltas over one kernel phase.  `valid` is false when the
/// counters could not be read (sampler unavailable or a multiplexed group
/// that never got PMU time) — consumers must skip, not zero-fill.
///
/// When more counter groups are open than the PMU has slots, the kernel
/// time-multiplexes them: the group counts only for `time_running` of the
/// `time_enabled` nanoseconds the phase lasted.  The sampler scales counts
/// by enabled/running (the standard perf(1) extrapolation) and sets
/// `scaled` so the journal and analyzer can flag the estimate — scaled
/// counts are statistically sound for long phases but are no longer exact
/// event counts.
struct PerfSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  std::uint64_t time_enabled_ns = 0;  ///< phase duration the group was enabled
  std::uint64_t time_running_ns = 0;  ///< slice the group actually counted
  bool scaled = false;  ///< counts extrapolated from a partial slice
  bool valid = false;

  friend bool operator==(const PerfSample&, const PerfSample&) = default;
};

/// One thread's counter group.  Not thread-safe: each evaluation worker
/// owns its own instance (counters attach to the calling thread, matching
/// the journal's per-worker buffers).
class PerfCounterSampler {
 public:
  /// Opens the counter group for the calling thread.  Never throws for
  /// environment reasons; check available().
  PerfCounterSampler();
  ~PerfCounterSampler();

  PerfCounterSampler(const PerfCounterSampler&) = delete;
  PerfCounterSampler& operator=(const PerfCounterSampler&) = delete;

  /// True when all three counters opened; false puts the sampler in
  /// permanent no-op mode (begin/end still safe to call).
  [[nodiscard]] bool available() const { return available_; }

  /// Reset and start counting (kernel phase entry).
  void begin();

  /// Stop counting and return the deltas since begin().
  PerfSample end();

  /// Human-readable reason the sampler is unavailable ("" when available) —
  /// surfaced once by the CLI so a silent all-zeros run is impossible.
  [[nodiscard]] const char* unavailable_reason() const { return reason_; }

 private:
  int fd_cycles_ = -1;
  int fd_instructions_ = -1;
  int fd_llc_misses_ = -1;
  bool available_ = false;
  const char* reason_ = "";
};

}  // namespace rooftune::trace

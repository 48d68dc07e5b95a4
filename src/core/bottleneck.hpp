#pragma once
// Counter-guided bottleneck classification (the search-speed loop-closure
// over the PR 4 observability layer).
//
// A configuration's first invocations already carry a hardware-counter
// signature: cycles, instructions, LLC misses.  From the misses and the
// analytic FLOP count the *measured* operational intensity follows
// (OI = flops / 64·misses), and the roofline model turns that into a hard
// ceiling on what the configuration can ever deliver:
//
//     attainable = min(peak, DRAM_bw × OI)
//
// Crucially the ceiling is rate-independent: warm-up, frequency ramps and
// cold caches depress the measured *rate*, but OI is a ratio of counts, so
// the bound is trustworthy from the very first invocation — which is
// exactly when CI-based elimination is still blind (a rising trend defers
// it for rounds).  CounterPrunePolicy exploits that: a configuration whose
// class bound provably cannot beat the incumbent's measured mean is
// abandoned after its first few invocations, before any further samples
// are spent on it.
//
// core only sees plain-double ceilings (no dependency on simhw's
// MachineSpec); the CLI derives them from the machine model or
// --custom-machine.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rooftune::core {

/// Hardware-counter deltas over one invocation's timed kernel phase.
/// Mirrors the perf_event_open group the observability layer samples
/// (trace::PerfSample) without depending on it: backends (the simulated
/// counter model) and the journal both convert into this seam type.
struct CounterSample {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t llc_misses = 0;
  /// Multiplexing accounting: when the PMU rotated the group off-core,
  /// counts were extrapolated by time_enabled/time_running and `scaled` is
  /// set.  The classifier widens its bound by that ratio instead of
  /// trusting the extrapolation verbatim.
  std::uint64_t time_enabled_ns = 0;
  std::uint64_t time_running_ns = 0;
  bool scaled = false;
  bool valid = false;  ///< counters were actually read for this invocation
};

/// What limits a configuration, per its counter signature.
enum class BottleneckClass {
  Unknown,  ///< no/degenerate counters — no bound can be derived
  Compute,  ///< OI at or past the ridge: bounded by peak FLOP rate
  Dram,     ///< OI below the ridge: bounded by DRAM_bw × OI
  Latency,  ///< low IPC *and* low achieved bandwidth: overhead/latency bound
};

const char* to_string(BottleneckClass cls);

/// Inverse of to_string; empty for unrecognized text.  Checkpoints persist
/// the class by name, so restore round-trips through this.
[[nodiscard]] std::optional<BottleneckClass> bottleneck_class_from_string(
    std::string_view text);

/// One classification: the class, the roofline bound it implies, and the
/// evidence (measured OI, IPC) behind it.
struct BottleneckVerdict {
  BottleneckClass cls = BottleneckClass::Unknown;
  /// Attainable GFLOP/s ceiling for this signature.  Infinity when Unknown
  /// (no counters → no bound → never prune).
  double bound_gflops = 0.0;
  /// Measured operational intensity, flops / (64 × llc_misses).  Absent
  /// when misses are zero (cache-resident: OI is effectively unbounded and
  /// the compute roof binds).
  std::optional<double> oi;
  double ipc = 0.0;  ///< instructions per cycle (0 when cycles are 0)
  /// The bound was widened by the multiplex-scaling ratio (scaled counters
  /// are extrapolations; the widened bound is the conservative envelope).
  bool widened = false;
};

/// Maps counter signatures to bottleneck classes and roofline bounds.
/// Ceilings are the machine's roofline: `peak_gflops` the compute roof for
/// the sockets in use, `dram_gbps` the DRAM bandwidth roof.
class BottleneckClassifier {
 public:
  BottleneckClassifier(double peak_gflops, double dram_gbps);

  /// Classify one invocation: `flops` is the analytic work the counters
  /// cover (flops_per_iteration × iterations) and `kernel_s` the measured
  /// kernel time of the same span (feeds the achieved-bandwidth test for
  /// the latency class; pass 0 when unknown).
  [[nodiscard]] BottleneckVerdict classify(const CounterSample& sample,
                                           double flops,
                                           double kernel_s) const;

  [[nodiscard]] double peak_gflops() const { return peak_gflops_; }
  [[nodiscard]] double dram_gbps() const { return dram_gbps_; }

  /// IPC below this *and* achieved bandwidth below kLatencyBwFraction of
  /// the DRAM roof marks an invocation latency-bound: neither roof is near
  /// saturation, so the kernel is stalled on dependencies/overheads rather
  /// than throughput.  The prune bound stays the (safe) roofline ceiling.
  static constexpr double kLatencyIpc = 0.25;
  static constexpr double kLatencyBwFraction = 0.25;

 private:
  double peak_gflops_;
  double dram_gbps_;
};

/// The margin-gated prune decision.  A configuration is abandoned when its
/// class bound — inflated by `margin` as a safety factor — still cannot
/// reach the incumbent:  bound × (1 + margin) < incumbent.  Larger margins
/// prune less (safer); negative margins demonstrate the false-prune
/// failure mode (bench/ablation_counter_prune).  Only the first `window`
/// invocations are consulted: by then CI machinery has real samples and
/// the counter shortcut has nothing left to add.
struct CounterPrunePolicy {
  double margin = 0.25;
  std::uint64_t window = 2;

  /// `bound_metric` is the verdict's bound converted into the backend's
  /// metric (GFLOP/s passes through; byte metrics scale by bytes/flops).
  [[nodiscard]] bool should_prune(const BottleneckVerdict& verdict,
                                  double bound_metric,
                                  std::optional<double> incumbent,
                                  std::uint64_t invocations_done) const;

  /// Pre-invocation variant: the bound comes from the backend's *predicted*
  /// intensity (Backend::analytic_intensity) rather than a measured
  /// signature, so there is no verdict and no window — just the same
  /// margin-inflated comparison against the incumbent.  Callers gate this
  /// on calibration (measured OIs must have validated the prediction
  /// first); see RacingScheduler::apply_counter_skips.
  [[nodiscard]] bool should_skip(double bound_metric,
                                 std::optional<double> incumbent) const;
};

}  // namespace rooftune::core

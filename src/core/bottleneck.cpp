#include "core/bottleneck.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rooftune::core {

const char* to_string(BottleneckClass cls) {
  switch (cls) {
    case BottleneckClass::Unknown: return "unknown";
    case BottleneckClass::Compute: return "compute-bound";
    case BottleneckClass::Dram: return "dram-bound";
    case BottleneckClass::Latency: return "latency-bound";
  }
  return "?";
}

std::optional<BottleneckClass> bottleneck_class_from_string(
    std::string_view text) {
  for (const auto cls : {BottleneckClass::Unknown, BottleneckClass::Compute,
                         BottleneckClass::Dram, BottleneckClass::Latency}) {
    if (text == to_string(cls)) return cls;
  }
  return std::nullopt;
}

BottleneckClassifier::BottleneckClassifier(double peak_gflops, double dram_gbps)
    : peak_gflops_(peak_gflops), dram_gbps_(dram_gbps) {
  if (!(peak_gflops > 0.0) || !(dram_gbps > 0.0)) {
    throw std::invalid_argument(
        "BottleneckClassifier: roofline ceilings must be > 0");
  }
}

BottleneckVerdict BottleneckClassifier::classify(const CounterSample& sample,
                                                 double flops,
                                                 double kernel_s) const {
  BottleneckVerdict verdict;
  verdict.bound_gflops = std::numeric_limits<double>::infinity();
  // Degenerate signatures derive no bound: an invocation that retired no
  // instructions (or whose counters were never read) says nothing about
  // the configuration, so the verdict must never prune it.
  if (!sample.valid || sample.cycles == 0 || sample.instructions == 0 ||
      !(flops > 0.0)) {
    return verdict;
  }
  verdict.ipc = static_cast<double>(sample.instructions) /
                static_cast<double>(sample.cycles);

  // Multiplex widening: a scaled count is value × enabled/running — an
  // extrapolation, not a measurement.  The true miss count could be lower
  // by up to that ratio, which would *raise* the memory bound, so the
  // conservative envelope multiplies the memory roof by the same factor.
  double widen = 1.0;
  if (sample.scaled && sample.time_running_ns > 0 &&
      sample.time_enabled_ns > sample.time_running_ns) {
    widen = static_cast<double>(sample.time_enabled_ns) /
            static_cast<double>(sample.time_running_ns);
    verdict.widened = true;
  }

  if (sample.llc_misses == 0) {
    // Cache-resident: no DRAM traffic observed, the memory roof cannot
    // bind.  (Also the safe answer when the PMU lacks an LLC-miss event
    // and the sampler reports zero.)
    verdict.cls = BottleneckClass::Compute;
    verdict.bound_gflops = peak_gflops_;
    return verdict;
  }

  const double bytes = 64.0 * static_cast<double>(sample.llc_misses);
  const double oi = flops / bytes;
  verdict.oi = oi;
  const double memory_roof_gflops = dram_gbps_ * oi * widen;
  verdict.bound_gflops = std::min(peak_gflops_, memory_roof_gflops);
  verdict.cls = memory_roof_gflops < peak_gflops_ ? BottleneckClass::Dram
                                                  : BottleneckClass::Compute;

  // Latency overlay: when the kernel saturates neither roof — IPC far
  // below issue width *and* achieved DRAM bandwidth far below the memory
  // roof — the limiter is dependency/overhead latency.  Informational
  // only: the prune bound stays the roofline ceiling above, which remains
  // a true upper bound regardless of what stalls the kernel today.
  if (kernel_s > 0.0 && verdict.ipc < kLatencyIpc) {
    const double achieved_gbps = bytes / kernel_s / 1e9;
    if (achieved_gbps < kLatencyBwFraction * dram_gbps_) {
      verdict.cls = BottleneckClass::Latency;
    }
  }
  return verdict;
}

bool CounterPrunePolicy::should_prune(const BottleneckVerdict& verdict,
                                      double bound_metric,
                                      std::optional<double> incumbent,
                                      std::uint64_t invocations_done) const {
  if (!incumbent.has_value()) return false;
  if (invocations_done == 0 || invocations_done > window) return false;
  if (verdict.cls == BottleneckClass::Unknown) return false;
  if (!(bound_metric > 0.0) ||
      bound_metric == std::numeric_limits<double>::infinity()) {
    return false;
  }
  return bound_metric * (1.0 + margin) < *incumbent;
}

bool CounterPrunePolicy::should_skip(double bound_metric,
                                     std::optional<double> incumbent) const {
  if (!incumbent.has_value()) return false;
  if (!(bound_metric > 0.0) ||
      bound_metric == std::numeric_limits<double>::infinity()) {
    return false;
  }
  return bound_metric * (1.0 + margin) < *incumbent;
}

}  // namespace rooftune::core

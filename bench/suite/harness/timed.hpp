#pragma once
// Timing decorators for the traced run: TimedBackend wraps a core::Backend
// and TimedSink wraps a core::TraceSink (the TraceJournal).  Each opens a
// span around the calls that do work and forwards every virtual unchanged,
// so a decorated run produces the same TuningRun and the same journal bytes
// as an undecorated one (tests/test_timed.cpp pins both).

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "core/backend.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/trace_events.hpp"
#include "harness/spans.hpp"

namespace rooftune::suite {

/// Span names one backend records; the prefix names the layer doing the
/// work ("simhw" for the simulator).
struct BackendSpans {
  const char* begin_invocation;
  const char* iteration;
  const char* batch;
  const char* end_invocation;
};

inline constexpr BackendSpans kSimSpans{
    "simhw.begin_invocation", "simhw.run_iteration", "simhw.run_batch",
    "simhw.end_invocation"};

class TimedBackend final : public core::Backend {
 public:
  /// Borrow `inner`, which must outlive the decorator.  `parent` links
  /// spans opened on a thread with no open span (pool workers) to a span of
  /// the thread that built the backend.
  TimedBackend(core::Backend& inner, Tracer& tracer, BackendSpans spans,
               std::uint64_t parent = 0);
  /// Own `inner`.
  TimedBackend(std::unique_ptr<core::Backend> inner, Tracer& tracer,
               BackendSpans spans, std::uint64_t parent = 0);

  void begin_invocation(const core::Configuration& config,
                        std::uint64_t invocation_index) override;
  core::Sample run_iteration() override;
  core::BatchSample run_batch(std::uint64_t count) override;
  void end_invocation() override;

  [[nodiscard]] const util::Clock& clock() const override { return inner_.clock(); }
  [[nodiscard]] bool reentrant() const override { return inner_.reentrant(); }
  [[nodiscard]] std::optional<util::ArenaStats> arena_stats() const override {
    return inner_.arena_stats();
  }
  [[nodiscard]] std::optional<InvocationTiming> last_invocation_timing()
      const override {
    return inner_.last_invocation_timing();
  }
  [[nodiscard]] std::optional<core::TelemetrySpan> last_invocation_telemetry()
      const override {
    return inner_.last_invocation_telemetry();
  }
  [[nodiscard]] std::optional<core::CounterSample> last_invocation_counters()
      const override {
    return inner_.last_invocation_counters();
  }
  [[nodiscard]] std::optional<double> analytic_intensity(
      const core::Configuration& config) const override {
    return inner_.analytic_intensity(config);
  }
  [[nodiscard]] std::optional<double> flops_per_iteration() const override {
    return inner_.flops_per_iteration();
  }
  [[nodiscard]] std::optional<double> bytes_per_iteration() const override {
    return inner_.bytes_per_iteration();
  }
  [[nodiscard]] std::string metric_name() const override {
    return inner_.metric_name();
  }

 private:
  std::unique_ptr<core::Backend> owned_;
  core::Backend& inner_;
  Tracer& tracer_;
  BackendSpans spans_;
  std::uint64_t parent_;
};

/// A ParallelEvaluator factory whose backends are TimedBackends; worker
/// spans link to the span open on the thread that calls the factory.
core::ParallelEvaluator::BackendFactory timed_factory(
    core::ParallelEvaluator::BackendFactory inner, Tracer& tracer,
    BackendSpans spans);

/// Times every emit ("journal.emit") and forwards everything to `inner`.
class TimedSink final : public core::TraceSink {
 public:
  TimedSink(core::TraceSink& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  void emit(const core::TraceEvent& event) override;
  void kernel_phase_begin() override { inner_.kernel_phase_begin(); }
  void kernel_phase_end() override { inner_.kernel_phase_end(); }
  [[nodiscard]] std::optional<core::CounterSample> kernel_phase_counters()
      const override {
    return inner_.kernel_phase_counters();
  }

 private:
  core::TraceSink& inner_;
  Tracer& tracer_;
};

}  // namespace rooftune::suite

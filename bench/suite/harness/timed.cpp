#include "harness/timed.hpp"

namespace rooftune::suite {

TimedBackend::TimedBackend(core::Backend& inner, Tracer& tracer, BackendSpans spans,
                           std::uint64_t parent)
    : inner_(inner), tracer_(tracer), spans_(spans), parent_(parent) {}

TimedBackend::TimedBackend(std::unique_ptr<core::Backend> inner, Tracer& tracer,
                           BackendSpans spans, std::uint64_t parent)
    : owned_(std::move(inner)),
      inner_(*owned_),
      tracer_(tracer),
      spans_(spans),
      parent_(parent) {}

void TimedBackend::begin_invocation(const core::Configuration& config,
                                    std::uint64_t invocation_index) {
  Span span(&tracer_, spans_.begin_invocation, parent_);
  inner_.begin_invocation(config, invocation_index);
}

core::Sample TimedBackend::run_iteration() {
  Span span(&tracer_, spans_.iteration, parent_);
  return inner_.run_iteration();
}

core::BatchSample TimedBackend::run_batch(std::uint64_t count) {
  Span span(&tracer_, spans_.batch, parent_);
  return inner_.run_batch(count);
}

void TimedBackend::end_invocation() {
  Span span(&tracer_, spans_.end_invocation, parent_);
  inner_.end_invocation();
}

core::ParallelEvaluator::BackendFactory timed_factory(
    core::ParallelEvaluator::BackendFactory inner, Tracer& tracer,
    BackendSpans spans) {
  return [inner = std::move(inner), &tracer,
          spans]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<TimedBackend>(inner(), tracer, spans,
                                          tracer.current());
  };
}

void TimedSink::emit(const core::TraceEvent& event) {
  Span span(&tracer_, "journal.emit");
  inner_.emit(event);
}

}  // namespace rooftune::suite

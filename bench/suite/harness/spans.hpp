#pragma once
// Span tracer for the suite's traced runs (run.py --trace 1).
//
// The harness opens a span around every call it makes into a layer of the
// program, named "<layer>.<call>" ("simhw.run_iteration", "journal.emit",
// "reader.read_journal"), and the Timed* decorators (timed.hpp) do the same
// around every Backend / TraceSink entry point.  Each span has a name, a
// start, an end and a parent; per-name call counts are kept with them.  Spans
// stay in memory, one lane per thread, and are written out at the end of
// the run as Chrome trace-event JSON, which Perfetto loads as is.
//
// Per-name aggregates (calls, total time, self time = span minus the part
// its same-thread children cover) are exact even after a lane's event
// buffer fills; a full buffer only drops events from the Perfetto file.
// Untraced passes never construct a Tracer, so they run no span code.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rooftune::suite {

class Tracer {
 public:
  struct Aggregate {
    std::uint64_t calls = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;

    Aggregate& operator+=(const Aggregate& other);
  };

  explicit Tracer(std::size_t events_per_lane = 1u << 18);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Open a span on the calling thread.  `name` must have static storage
  /// duration.  `parent` links a thread's outermost span to a span of
  /// another thread (a worker's backend call to the coordinator's run);
  /// nested spans take the enclosing span as parent.  Returns the span id.
  std::uint64_t begin(const char* name, std::uint64_t parent = 0);

  /// Close the innermost open span of the calling thread.
  void end();

  /// Id of the innermost open span on the calling thread, 0 when none.
  [[nodiscard]] std::uint64_t current();

  /// Nanoseconds the calling thread has spent inside its outermost spans.
  [[nodiscard]] std::uint64_t top_level_ns();

  /// Name the calling thread's lane in the Perfetto file.
  void set_thread_name(const std::string& name);

  /// Aggregates merged over every lane, keyed by span name; `calls` is the
  /// count of work done at that boundary.
  [[nodiscard]] std::map<std::string, Aggregate> aggregates() const;

  /// Events dropped because a lane's buffer was full.
  [[nodiscard]] std::uint64_t dropped() const;

  /// Chrome trace-event JSON of every recorded span (ph "X", µs, with the
  /// span id and parent id in args) plus thread-name metadata.  Call only
  /// once every thread that recorded has finished.
  [[nodiscard]] std::string chrome_json() const;

  struct Lane;

 private:
  Lane& lane();
  [[nodiscard]] std::uint64_t now_ns() const;

  const std::uint64_t id_;
  const std::size_t capacity_;
  const std::uint64_t epoch_ns_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
};

/// RAII span; a null tracer makes it a no-op, which is how untraced passes
/// share code with traced ones.
class Span {
 public:
  Span(Tracer* tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, parent);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->end();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace rooftune::suite

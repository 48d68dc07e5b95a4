#pragma once
// SchedulerStats — per-run accounting for the parallel evaluation
// scheduler (core::EvalPool + the in-order commit stage).
//
// Every field except mode/workers/lookahead is a wall-clock measurement
// and therefore nondeterministic run to run.  That is why the stats ride
// OUTSIDE the journal's bit-identity boundary: they are only collected
// when ParallelOptions::sched_stats is set, and the journal serializes
// them as a separate {"t":"scheduler"} record that is absent by default
// (see trace/journal.cpp).

#include <cstdint>
#include <string>

namespace rooftune::core {

struct SchedulerStats {
  std::string mode;            ///< always "pipeline" (kept for readers)
  std::uint64_t workers = 0;   ///< pool width actually used
  std::uint64_t lookahead = 0; ///< epochs in flight
  std::uint64_t tasks = 0;     ///< tasks executed across the pool
  std::uint64_t steals = 0;    ///< tasks obtained from another worker's deque
  std::uint64_t parks = 0;     ///< times a worker slept for lack of work
  std::uint64_t idle_ns = 0;   ///< summed worker time parked or scanning empty
  std::uint64_t busy_ns = 0;   ///< summed worker time inside task bodies
  std::uint64_t commit_wait_ns = 0;  ///< completed-to-committed latency sum
  std::uint64_t span_ns = 0;   ///< pool lifetime (construction to stats())

  /// Fraction of total worker-time spent without work; the headline number
  /// the pipeline ablation drives down from lookahead 1 to lookahead 8.
  [[nodiscard]] double idle_fraction() const {
    const double denom =
        static_cast<double>(workers) * static_cast<double>(span_ns);
    return denom > 0.0 ? static_cast<double>(idle_ns) / denom : 0.0;
  }
};

}  // namespace rooftune::core

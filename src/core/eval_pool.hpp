#pragma once
// EvalPool — the persistent worker pool behind ParallelEvaluator's
// deterministic schedule.
//
// Threads are created once (and optionally pinned once, via
// util::pin_current_thread) and live for the pool's lifetime, so epochs,
// racing rounds and surrogate phases pay no thread spawn/join per epoch.
// The pool is one mutex-guarded FIFO queue: submit() appends a task and
// wakes one parked worker; a worker takes the oldest task, or parks on the
// condition variable until new work or shutdown.  Only the pipeline's
// coordinator submits, and a task is a whole configuration or one racing
// invocation, so one lock serves this traffic; FIFO order also runs tasks
// in the order the commit window retires them.
//
// Determinism contract: the pool itself guarantees nothing about which
// worker runs a task or when it finishes.  Result ordering is the caller's
// job (the pipeline's in-order commit window); tasks must also catch their
// own exceptions, because a throw from a task body would terminate the
// process.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sched_stats.hpp"

namespace rooftune::core {

class EvalPool {
 public:
  /// Runs on a pool worker; the argument is the worker index in
  /// [0, workers()), stable for the task's whole body — callers key
  /// per-worker resources (backends) off it.  Must not throw.
  using Task = std::function<void(std::size_t)>;

  struct Options {
    std::size_t workers = 1;
    /// Pin worker w to logical CPU w (mod online CPUs) at thread start.
    bool pin_threads = false;
  };

  explicit EvalPool(Options options);
  ~EvalPool();

  EvalPool(const EvalPool&) = delete;
  EvalPool& operator=(const EvalPool&) = delete;

  [[nodiscard]] std::size_t workers() const { return counters_.size(); }

  /// Enqueue a task at the back of the queue and wake one parked worker.
  /// Any thread may call this, though the evaluator only ever submits from
  /// its coordinator.
  void submit(Task task);

  /// Aggregate per-worker counters.  mode/lookahead/tasks/commit_wait_ns
  /// are the caller's to fill in; the pool reports what it can observe
  /// (parks, idle/busy time, span; steals are always 0).
  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Counters {
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void worker_main(std::size_t w);

  const bool pin_threads_;
  std::vector<Counters> counters_;
  std::chrono::steady_clock::time_point start_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Task> queue_;  ///< guarded by mutex_
  bool stop_ = false;       ///< guarded by mutex_

  std::vector<std::thread> threads_;  ///< last: the workers use every member
};

}  // namespace rooftune::core

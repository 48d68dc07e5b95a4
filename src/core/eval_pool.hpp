#pragma once
// EvalPool — the persistent worker pool behind ParallelEvaluator's
// deterministic schedule.
//
// Threads are created once (and optionally pinned once, via
// util::pin_current_thread) and live for the pool's lifetime, so epochs,
// racing rounds and surrogate phases pay no thread spawn/join per epoch.
// Each worker owns a Chase–Lev deque (util/work_steal.hpp); submit()
// round-robins tasks into small mutex-protected inboxes that workers
// drain into their own deque, so the submitting coordinator never touches
// a deque it does not own.  Idle workers first sweep every other worker's
// deque and inbox, then park on a condition variable until new work or
// shutdown.
//
// Determinism contract: the pool itself guarantees nothing about ORDER —
// tasks run on whichever worker gets there first.  Result ordering is the
// caller's job (ParallelEvaluator's in-order commit stage); tasks must
// also catch their own exceptions, because a throw from a task body would
// terminate the process.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/sched_stats.hpp"
#include "util/work_steal.hpp"

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

  [[nodiscard]] std::size_t workers() const { return contexts_.size(); }

  /// Enqueue a task; wakes parked workers.  Any thread may call this,
  /// though the evaluator only ever submits from its coordinator.
  void submit(Task task);

  /// Aggregate per-worker counters.  mode/lookahead/tasks/commit_wait_ns
  /// are the caller's to fill in; the pool reports what it can observe
  /// (steals, parks, idle/busy time, span).
  [[nodiscard]] SchedulerStats stats() const;

 private:
  struct Node {
    Task fn;
  };
  struct Context {
    util::WorkStealDeque<Node*> deque;
    std::mutex inbox_mutex;
    std::vector<Node*> inbox;
    std::atomic<std::uint64_t> executed{0};
    std::atomic<std::uint64_t> stolen{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> idle_ns{0};
    std::atomic<std::uint64_t> busy_ns{0};
  };

  void worker_main(std::size_t w);
  /// One full acquire attempt: own deque, own inbox, then steal sweep.
  Node* acquire(std::size_t w, bool& stolen);

  const bool pin_threads_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<std::thread> threads_;

  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  /// Tasks submitted but not yet picked up by any worker; the park
  /// predicate — workers sleep only when this is zero.
  std::atomic<std::int64_t> pending_{0};
  std::atomic<bool> stop_{false};

  std::mutex submit_mutex_;
  std::size_t next_inbox_ = 0;  ///< round-robin cursor, guarded by submit_mutex_

  std::chrono::steady_clock::time_point start_;
};

}  // namespace rooftune::core

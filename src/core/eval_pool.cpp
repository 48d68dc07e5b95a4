#include "core/eval_pool.hpp"

#include <string>
#include <utility>

#include "util/affinity.hpp"
#include "util/profiler.hpp"

namespace rooftune::core {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

EvalPool::EvalPool(Options options)
    : pin_threads_(options.pin_threads),
      counters_(options.workers > 0 ? options.workers : 1),
      start_(Clock::now()) {
  threads_.reserve(counters_.size());
  for (std::size_t w = 0; w < counters_.size(); ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

EvalPool::~EvalPool() {
  {
    const std::scoped_lock lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  // Workers drain whatever is still queued before they exit.
  for (std::thread& thread : threads_) thread.join();
}

void EvalPool::submit(Task task) {
  {
    const std::scoped_lock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void EvalPool::worker_main(std::size_t w) {
  if (pin_threads_) util::pin_current_thread(w);
  Counters& self = counters_[w];
  util::Profiler& profiler = util::Profiler::instance();
  profiler.set_thread_name("worker-" + std::to_string(w));
  for (;;) {
    Task task;
    {
      std::unique_lock lock(mutex_);
      if (queue_.empty() && !stop_) {
        self.parks.fetch_add(1, std::memory_order_relaxed);
        profiler.instant(util::ProfileCategory::Park, w);
        const Clock::time_point idle_start = Clock::now();
        cv_.wait(lock, [this] { return !queue_.empty() || stop_; });
        // The final park — ended by stop_, during pool destruction — is
        // not idle time: the coordinator snapshots stats() before
        // ~EvalPool, so that interval never reaches the published idle_ns.
        if (!queue_.empty()) {
          const Clock::time_point idle_end = Clock::now();
          self.idle_ns.fetch_add(ns_between(idle_start, idle_end),
                                 std::memory_order_relaxed);
          // The profile's pool-idle span brackets exactly the interval
          // idle_ns accumulates, so the report's cross-check compares like
          // for like.
          profiler.record(util::ProfileCategory::PoolIdle,
                          profiler.to_ticks(idle_start),
                          profiler.to_ticks(idle_end), 0.0, w);
        }
      }
      if (queue_.empty()) return;  // stopped and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // Counted before the task body runs: the coordinator observes task
    // completion from inside the body, so a post-run increment could read
    // one short in stats() taken right after the last commit.
    self.executed.fetch_add(1, std::memory_order_relaxed);
    const Clock::time_point busy_start = Clock::now();
    task(w);
    const Clock::time_point busy_end = Clock::now();
    self.busy_ns.fetch_add(ns_between(busy_start, busy_end),
                           std::memory_order_relaxed);
    profiler.record(util::ProfileCategory::TaskExec,
                    profiler.to_ticks(busy_start), profiler.to_ticks(busy_end),
                    0.0, w);
  }
}

SchedulerStats EvalPool::stats() const {
  SchedulerStats stats;
  stats.workers = counters_.size();
  for (const Counters& counters : counters_) {
    stats.tasks += counters.executed.load(std::memory_order_relaxed);
    stats.parks += counters.parks.load(std::memory_order_relaxed);
    stats.idle_ns += counters.idle_ns.load(std::memory_order_relaxed);
    stats.busy_ns += counters.busy_ns.load(std::memory_order_relaxed);
  }
  stats.span_ns = ns_between(start_, Clock::now());
  return stats;
}

}  // namespace rooftune::core

#include "core/eval_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace rooftune::core {
namespace {

/// Wait until `count` reaches `target` (tasks completing asynchronously).
void await(std::atomic<std::uint64_t>& count, std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < target) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "pool stalled";
    std::this_thread::yield();
  }
}

TEST(EvalPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  EvalPool pool({.workers = 4});
  EXPECT_EQ(pool.workers(), 4u);

  constexpr std::uint64_t kTasks = 500;
  std::vector<std::atomic<int>> ran(kTasks);
  std::atomic<std::uint64_t> done{0};
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    pool.submit([&, i](std::size_t) {
      ran[i].fetch_add(1);
      done.fetch_add(1);
    });
  }
  await(done, kTasks);
  for (std::uint64_t i = 0; i < kTasks; ++i) EXPECT_EQ(ran[i].load(), 1) << i;
  EXPECT_EQ(pool.stats().tasks, kTasks);
}

TEST(EvalPoolTest, WorkerIndexStaysInRange) {
  EvalPool pool({.workers = 3});
  std::atomic<std::uint64_t> done{0};
  std::atomic<bool> out_of_range{false};
  for (int i = 0; i < 200; ++i) {
    pool.submit([&](std::size_t w) {
      if (w >= 3) out_of_range.store(true);
      done.fetch_add(1);
    });
  }
  await(done, 200);
  EXPECT_FALSE(out_of_range.load());
}

TEST(EvalPoolTest, TasksSubmittedFromTasksComplete) {
  // The racing pipeline dispatches block b+L from the commit of block b,
  // which runs on the coordinator — but nothing forbids submission from a
  // worker; exercise it.
  EvalPool pool({.workers = 2});
  std::atomic<std::uint64_t> done{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&pool, &done](std::size_t) {
      pool.submit([&done](std::size_t) { done.fetch_add(1); });
    });
  }
  await(done, 50);
  EXPECT_EQ(pool.stats().tasks, 100u);
}

TEST(EvalPoolTest, DestructionJoinsIdleWorkers) {
  // Parked workers must wake and exit when the pool dies; a hang here is
  // the classic lost-wakeup bug.
  for (int round = 0; round < 20; ++round) {
    EvalPool pool({.workers = 4});
    std::atomic<std::uint64_t> done{0};
    pool.submit([&](std::size_t) { done.fetch_add(1); });
    await(done, 1);
  }
}

TEST(EvalPoolTest, PinningIsASoftNoOp) {
  // pin_threads must never fail construction, whatever the host allows.
  EvalPool pool({.workers = 2, .pin_threads = true});
  std::atomic<std::uint64_t> done{0};
  pool.submit([&](std::size_t) { done.fetch_add(1); });
  await(done, 1);
}

TEST(EvalPoolTest, StatsCountParksAndSpan) {
  EvalPool pool({.workers = 2});
  // Give workers time to go idle and park at least once.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::atomic<std::uint64_t> done{0};
  pool.submit([&](std::size_t) { done.fetch_add(1); });
  await(done, 1);
  const SchedulerStats stats = pool.stats();
  EXPECT_GE(stats.parks, 1u);
  EXPECT_GT(stats.span_ns, 0u);
  EXPECT_EQ(stats.workers, 2u);
}

TEST(EvalPoolTest, RunsTasksInSubmissionOrderOnOneWorker) {
  // One FIFO queue: a single worker takes tasks oldest first, which is the
  // order the pipeline's commit window retires them.
  EvalPool pool({.workers = 1});
  constexpr std::uint64_t kTasks = 200;
  std::mutex mutex;
  std::vector<std::uint64_t> order;
  std::atomic<std::uint64_t> done{0};
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    pool.submit([&, i](std::size_t) {
      {
        const std::scoped_lock lock(mutex);
        order.push_back(i);
      }
      done.fetch_add(1);
    });
  }
  await(done, kTasks);
  const std::scoped_lock lock(mutex);
  ASSERT_EQ(order.size(), kTasks);
  for (std::uint64_t i = 0; i < kTasks; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(pool.stats().steals, 0u);
}

}  // namespace
}  // namespace rooftune::core

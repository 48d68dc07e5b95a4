#include "core/sched_stats.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/autotuner.hpp"
#include "core/eval_pool.hpp"
#include "core/report.hpp"
#include "trace/journal.hpp"
#include "trace/profile_export.hpp"
#include "trace/reader.hpp"

namespace rooftune::core {
namespace {

TEST(SchedulerStatsTest, IdleFractionIsZeroWhenDenominatorIsZero) {
  SchedulerStats stats;
  EXPECT_DOUBLE_EQ(stats.idle_fraction(), 0.0);  // all-default: 0 / (0 * 0)

  stats.idle_ns = 1'000'000;  // idle time but no span recorded
  stats.workers = 4;
  EXPECT_DOUBLE_EQ(stats.idle_fraction(), 0.0);

  stats.span_ns = 2'000'000;
  stats.workers = 0;  // span but no workers
  EXPECT_DOUBLE_EQ(stats.idle_fraction(), 0.0);
}

TEST(SchedulerStatsTest, IdleFractionBoundaries) {
  SchedulerStats stats;
  stats.workers = 2;
  stats.span_ns = 1'000'000;

  stats.idle_ns = 0;
  EXPECT_DOUBLE_EQ(stats.idle_fraction(), 0.0);

  stats.idle_ns = 2'000'000;  // every worker idle the whole span
  EXPECT_DOUBLE_EQ(stats.idle_fraction(), 1.0);

  stats.idle_ns = 500'000;  // one quarter of 2 workers x 1 ms
  EXPECT_DOUBLE_EQ(stats.idle_fraction(), 0.25);
}

TEST(SchedulerStatsTest, SingleWorkerPoolNeverSteals) {
  EvalPool pool({.workers = 1});
  std::atomic<std::uint64_t> done{0};
  constexpr std::uint64_t kTasks = 64;
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    pool.submit([&](std::size_t w) {
      EXPECT_EQ(w, 0u);
      done.fetch_add(1);
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (done.load() < kTasks) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "pool stalled";
    std::this_thread::yield();
  }
  const SchedulerStats stats = pool.stats();
  EXPECT_EQ(stats.workers, 1u);
  EXPECT_EQ(stats.tasks, kTasks);
  EXPECT_EQ(stats.steals, 0u) << "a lone worker has nobody to steal from";
  EXPECT_GT(stats.span_ns, 0u);
  EXPECT_LE(stats.idle_fraction(), 1.0);
}

TEST(SchedulerStatsTest, ZeroTaskPoolReportsZeroWork) {
  SchedulerStats stats;
  {
    EvalPool pool({.workers = 2});
    stats = pool.stats();
  }
  EXPECT_EQ(stats.workers, 2u);
  EXPECT_EQ(stats.tasks, 0u);
  EXPECT_EQ(stats.steals, 0u);
  EXPECT_EQ(stats.busy_ns, 0u);
  EXPECT_GE(stats.span_ns, 0u);
}

TEST(SchedulerStatsTest, JournalRoundTripPreservesEveryField) {
  SchedulerStats stats;
  stats.mode = "pipeline";
  stats.workers = 8;
  stats.lookahead = 3;
  stats.tasks = 4242;
  stats.steals = 137;
  stats.parks = 29;
  stats.idle_ns = 123'456'789;
  stats.busy_ns = 987'654'321;
  stats.commit_wait_ns = 55'555;
  stats.span_ns = 1'111'111'111;

  trace::TraceJournal journal;
  journal.begin_run({"dgemm", "GFLOP/s", "racing"});
  trace::RunSummary summary;
  summary.scheduler = stats;
  journal.finish_run(summary);

  const trace::Journal parsed = trace::read_journal(journal.str());
  ASSERT_TRUE(parsed.scheduler.has_value());
  const SchedulerStats& got = *parsed.scheduler;
  EXPECT_EQ(got.mode, stats.mode);
  EXPECT_EQ(got.workers, stats.workers);
  EXPECT_EQ(got.lookahead, stats.lookahead);
  EXPECT_EQ(got.tasks, stats.tasks);
  EXPECT_EQ(got.steals, stats.steals);
  EXPECT_EQ(got.parks, stats.parks);
  EXPECT_EQ(got.idle_ns, stats.idle_ns);
  EXPECT_EQ(got.busy_ns, stats.busy_ns);
  EXPECT_EQ(got.commit_wait_ns, stats.commit_wait_ns);
  EXPECT_EQ(got.span_ns, stats.span_ns);
  EXPECT_DOUBLE_EQ(got.idle_fraction(), stats.idle_fraction());
}

TEST(SchedulerStatsTest, JournalOmitsSchedulerRecordByDefault) {
  trace::TraceJournal journal;
  journal.begin_run({"dgemm", "GFLOP/s", "racing"});
  journal.finish_run({});
  const trace::Journal parsed = trace::read_journal(journal.str());
  EXPECT_FALSE(parsed.scheduler.has_value());
}

/// The text from `key` up to its object's closing brace.
std::string object_at(const std::string& text, const std::string& key) {
  const auto begin = text.find(key);
  if (begin == std::string::npos) return "<" + key + " missing>";
  return text.substr(begin, text.find('}', begin) + 1 - begin);
}

// The three writers of one SchedulerStats: the journal's scheduler record,
// the --json report's "scheduler" object and the profile's metadata.
// The journal and the report end with idle_fraction; the profile does not.
TEST(SchedulerStatsTest, WritersKeepTheirLayouts) {
  SchedulerStats stats;
  stats.mode = "pipeline";
  stats.workers = 4;
  stats.lookahead = 2;
  stats.tasks = 100;
  stats.steals = 0;
  stats.parks = 7;
  stats.idle_ns = 1000;
  stats.busy_ns = 5000;
  stats.commit_wait_ns = 300;
  stats.span_ns = 2000;
  const std::string fields =
      R"("mode":"pipeline","workers":4,"lookahead":2,"tasks":100,"steals":0,)"
      R"("parks":7,"idle_ns":1000,"busy_ns":5000,"commit_wait_ns":300,"span_ns":2000)";

  trace::TraceJournal journal;
  journal.begin_run({"dgemm", "GFLOP/s", "racing"});
  trace::RunSummary summary;
  summary.scheduler = stats;
  journal.finish_run(summary);
  EXPECT_EQ(object_at(journal.str(), R"({"t":"scheduler")"),
            R"({"t":"scheduler",)" + fields + R"(,"idle_fraction":0.125})");

  TuningRun run;
  run.sched = stats;
  EXPECT_EQ(object_at(to_json(run, "dgemm", "GFLOP/s"), R"("scheduler":)"),
            R"("scheduler":{)" + fields + R"(,"idle_fraction":0.125})");

  trace::ProfileMetadata meta;
  meta.sched = stats;
  EXPECT_EQ(object_at(trace::write_profile_json({}, meta), R"("sched":)"),
            R"("sched":{)" + fields + "}");
}

}  // namespace
}  // namespace rooftune::core

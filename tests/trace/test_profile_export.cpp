#include "trace/profile_export.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json_parse.hpp"

namespace rooftune::trace {
namespace {

using util::ProfileCategory;
using util::ProfileLane;
using util::ProfileRecord;
using util::ProfileSnapshot;

constexpr std::uint64_t kMs = 1'000'000;  // ns per millisecond

ProfileRecord span(ProfileCategory category, std::uint64_t start_ms,
                   std::uint64_t end_ms, double weight = 0.0,
                   std::uint64_t arg = 0) {
  ProfileRecord r;
  r.category = category;
  r.start_ns = start_ms * kMs;
  r.end_ns = end_ms * kMs;
  r.weight = weight;
  r.arg = arg;
  return r;
}

ProfileRecord instant(ProfileCategory category, std::uint64_t at_ms,
                      std::uint64_t arg = 0) {
  return span(category, at_ms, at_ms, 0.0, arg);
}

/// A fixed two-lane run whose cross-check anchors agree exactly: one task
/// on worker-0 (setup 0–5, kernel 5–30, teardown 30–35, all inside a
/// 0–40 ms task-exec), idle 40–100 ms; the coordinator runs one racing
/// round 0–100 ms with a 10 ms commit wait and a journal flush.
ProfileDocument synthetic_document() {
  ProfileDocument doc;

  ProfileLane coordinator;
  coordinator.thread_name = "coordinator";
  coordinator.records.push_back(span(ProfileCategory::RacingRound, 0, 100));
  coordinator.records.push_back(
      span(ProfileCategory::CommitWait, 10, 20, 0.0, 1));
  coordinator.records.push_back(span(ProfileCategory::JournalFlush, 90, 95));
  coordinator.records.push_back(instant(ProfileCategory::Incumbent, 50, 2));

  ProfileLane worker;
  worker.thread_name = "worker-0";
  worker.records.push_back(span(ProfileCategory::TaskExec, 0, 40));
  worker.records.push_back(span(ProfileCategory::Setup, 0, 5));
  worker.records.push_back(span(ProfileCategory::Kernel, 5, 30, 5.0));
  worker.records.push_back(span(ProfileCategory::Setup, 30, 35, 2.0));
  worker.records.push_back(span(ProfileCategory::PoolIdle, 40, 100));
  worker.records.push_back(instant(ProfileCategory::Steal, 1));
  worker.records.push_back(instant(ProfileCategory::Park, 45));

  doc.snapshot.lanes.push_back(std::move(coordinator));
  doc.snapshot.lanes.push_back(std::move(worker));
  doc.snapshot.overhead_ns_per_record = 50.0;

  doc.meta.benchmark = "synthetic";
  doc.meta.strategy = "racing";
  doc.meta.have_sums = true;
  doc.meta.kernel_s_sum = 5.0;
  doc.meta.setup_s_sum = 2.0;
  core::SchedulerStats sched;
  sched.mode = "pipeline";
  sched.workers = 1;
  sched.lookahead = 1;
  sched.tasks = 1;
  sched.steals = 1;
  sched.parks = 1;
  sched.busy_ns = 40 * kMs;
  sched.idle_ns = 60 * kMs;
  sched.commit_wait_ns = 10 * kMs;
  sched.span_ns = 100 * kMs;
  doc.meta.sched = sched;
  doc.meta.overhead_ns_per_record = 50.0;
  return doc;
}

// Lane names and metadata strings are escaped straight into the writer's
// buffer; quotes, backslashes, control bytes and multi-byte UTF-8 survive
// the parse, and re-writing the parsed document gives the same bytes.
TEST(ProfileExportTest, EscapedLaneNamesRoundTrip) {
  ProfileDocument doc = synthetic_document();
  doc.snapshot.lanes[0].thread_name = "co\"ord\\inator\x01\n";
  doc.snapshot.lanes[1].thread_name = "w\xc3\xb6rker \xe2\x82\xac\t0";
  doc.meta.benchmark = "bench\"\x1f";
  const std::string json = write_profile_json(doc.snapshot, doc.meta);
  const ProfileDocument parsed = parse_profile(json);
  ASSERT_EQ(parsed.snapshot.lanes.size(), 2u);
  EXPECT_EQ(parsed.snapshot.lanes[0].thread_name, "co\"ord\\inator\x01\n");
  EXPECT_EQ(parsed.snapshot.lanes[1].thread_name, "w\xc3\xb6rker \xe2\x82\xac\t0");
  EXPECT_EQ(parsed.meta.benchmark, "bench\"\x1f");
  EXPECT_EQ(write_profile_json(parsed.snapshot, parsed.meta), json);
}

TEST(ProfileExportTest, RoundTripPreservesEveryField) {
  const ProfileDocument original = synthetic_document();
  const std::string json =
      write_profile_json(original.snapshot, original.meta);
  const ProfileDocument parsed = parse_profile(json);

  EXPECT_EQ(parsed.meta.schema_version, kProfileSchemaVersion);
  EXPECT_EQ(parsed.meta.benchmark, "synthetic");
  EXPECT_EQ(parsed.meta.strategy, "racing");
  EXPECT_TRUE(parsed.meta.have_sums);
  EXPECT_DOUBLE_EQ(parsed.meta.kernel_s_sum, 5.0);
  EXPECT_DOUBLE_EQ(parsed.meta.setup_s_sum, 2.0);
  EXPECT_DOUBLE_EQ(parsed.meta.overhead_ns_per_record, 50.0);
  ASSERT_TRUE(parsed.meta.sched.has_value());
  EXPECT_EQ(parsed.meta.sched->mode, "pipeline");
  EXPECT_EQ(parsed.meta.sched->workers, 1u);
  EXPECT_EQ(parsed.meta.sched->lookahead, 1u);
  EXPECT_EQ(parsed.meta.sched->tasks, 1u);
  EXPECT_EQ(parsed.meta.sched->steals, 1u);
  EXPECT_EQ(parsed.meta.sched->parks, 1u);
  EXPECT_EQ(parsed.meta.sched->busy_ns, 40 * kMs);
  EXPECT_EQ(parsed.meta.sched->idle_ns, 60 * kMs);
  EXPECT_EQ(parsed.meta.sched->commit_wait_ns, 10 * kMs);
  EXPECT_EQ(parsed.meta.sched->span_ns, 100 * kMs);

  ASSERT_EQ(parsed.snapshot.lanes.size(), 2u);
  for (std::size_t lane = 0; lane < 2; ++lane) {
    const ProfileLane& got = parsed.snapshot.lanes[lane];
    const ProfileLane& want = original.snapshot.lanes[lane];
    EXPECT_EQ(got.thread_name, want.thread_name);
    EXPECT_EQ(got.dropped, want.dropped);
    ASSERT_EQ(got.records.size(), want.records.size()) << got.thread_name;
    for (std::size_t i = 0; i < want.records.size(); ++i) {
      EXPECT_EQ(got.records[i].category, want.records[i].category);
      EXPECT_EQ(got.records[i].start_ns, want.records[i].start_ns);
      EXPECT_EQ(got.records[i].end_ns, want.records[i].end_ns);
      EXPECT_EQ(got.records[i].arg, want.records[i].arg);
      EXPECT_DOUBLE_EQ(got.records[i].weight, want.records[i].weight);
    }
  }
}

TEST(ProfileExportTest, WritesChromeTraceEventShapes) {
  const ProfileDocument doc = synthetic_document();
  const std::string json = write_profile_json(doc.snapshot, doc.meta);
  // Loadable by Perfetto: complete events, thread-scoped instants, and
  // metadata events naming the lanes.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  // Kernel span 5–30 ms: ts/dur are microseconds in this format.
  EXPECT_NE(json.find("\"ts\":5000,\"dur\":25000"), std::string::npos);
  // Document parses as plain JSON too.
  EXPECT_NO_THROW(util::parse_json(json));
}

TEST(ProfileExportTest, RejectsDroppedRecordsOnlyInCounters) {
  ProfileDocument doc = synthetic_document();
  doc.snapshot.lanes[1].dropped = 17;
  const std::string json = write_profile_json(doc.snapshot, doc.meta);
  const ProfileDocument parsed = parse_profile(json);
  EXPECT_EQ(parsed.snapshot.lanes[1].dropped, 17u);
  EXPECT_EQ(parsed.snapshot.total_dropped(), 17u);
}

TEST(ProfileExportTest, MalformedJsonReportsLineAndColumn) {
  try {
    parse_profile("{\n  \"traceEvents\": [,]\n}");
    FAIL() << "expected parse failure";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("profile: malformed JSON"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("column"), std::string::npos) << what;
  }
}

TEST(ProfileExportTest, RejectsNonProfileDocuments) {
  EXPECT_THROW(parse_profile("{\"other\":1}"), std::runtime_error);
}

TEST(ProfileExportTest, RejectsNewerSchemaVersions) {
  const ProfileDocument doc = synthetic_document();
  std::string json = write_profile_json(doc.snapshot, doc.meta);
  const std::string needle = "\"schema_version\":1";
  const auto pos = json.find(needle);
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, needle.size(), "\"schema_version\":999");
  try {
    parse_profile(json);
    FAIL() << "expected schema rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("999"), std::string::npos);
  }
}

// Golden render of the fixed synthetic document: the category hierarchy
// (with nesting and self time), the worker-lane Gantt, the longest-spans
// table, critical path, overhead, and a cross-check where every anchor
// agrees exactly.  Any intentional format change updates this in one place.
TEST(ProfileReportTest, GoldenRender) {
  ProfileReportOptions options;
  options.top_spans = 3;
  options.gantt_width = 20;
  const std::string rendered =
      render_profile_report(synthetic_document(), options);
  const std::string golden = R"(self-profile: synthetic / racing
  lanes 2, spans 8, wall 100.000 ms

category hierarchy (host time; self = minus nested spans)
+-----------------+-------+----------+---------+--------+
| category        | count | total ms | self ms | % wall |
+-----------------+-------+----------+---------+--------+
| task-exec       |     1 |   40.000 |   5.000 |  40.0% |
|   setup         |     2 |   10.000 |  10.000 |  10.0% |
|   kernel        |     1 |   25.000 |  25.000 |  25.0% |
| pool-idle       |     1 |   60.000 |  60.000 |  60.0% |
| racing-round    |     1 |  100.000 |  85.000 | 100.0% |
|   commit-wait   |     1 |   10.000 |  10.000 |  10.0% |
|   journal-flush |     1 |    5.000 |   5.000 |   5.0% |
+-----------------+-------+----------+---------+--------+
instants: steal=1 park=1 incumbent=1

worker lanes (20 cols, 5.000 ms/col)
  coordinator |rrccrrrrrrrrrrrrrrjr| busy 100.0%
  worker-0    |skkkkks#............| busy 40.0%
  legend: #=task s=setup k=kernel .=idle c=commit-wait r=racing-round S=seed F=fit C=confirm j=journal w=checkpoint

top 3 longest spans
+--------------+-------------+----------+---------+-----+
| category     | lane        | start ms |  dur ms | arg |
+--------------+-------------+----------+---------+-----+
| racing-round | coordinator |    0.000 | 100.000 |   0 |
| pool-idle    | worker-0    |   40.000 |  60.000 |   0 |
| task-exec    | worker-0    |    0.000 |  40.000 |   0 |
+--------------+-------------+----------+---------+-----+

critical-path estimate: 100.000 ms covered by work (wall 100.000 ms, parallelism 1.30x)
profiler self-overhead: ~0.001 ms (11 records x 50 ns), dropped 0

cross-check (profiler vs report/scheduler accounting)
+-------------------------+----------+-----------+-------+----+
| quantity                | profiler | reference | delta |    |
+-------------------------+----------+-----------+-------+----+
| kernel time (backend s) |      5 s |       5 s | 0.00% | ok |
| setup time (backend s)  |      2 s |       2 s | 0.00% | ok |
| worker busy (host ms)   |    40 ms |     40 ms | 0.00% | ok |
| worker idle (host ms)   |    60 ms |     60 ms | 0.00% | ok |
| commit wait (host ms)   |    10 ms |     10 ms | 0.00% | ok |
| steals (count)          |        1 |         1 | 0.00% | ok |
| parks (count)           |        1 |         1 | 0.00% | ok |
+-------------------------+----------+-----------+-------+----+
)";
  EXPECT_EQ(rendered, golden);
}

TEST(ProfileReportTest, FlagsDriftAgainstReference) {
  ProfileDocument doc = synthetic_document();
  doc.meta.kernel_s_sum = 6.0;  // profiler weights still sum to 5.0
  const std::string rendered = render_profile_report(doc);
  EXPECT_NE(rendered.find("DRIFT"), std::string::npos);
}

TEST(ProfileReportTest, RendersWithoutRunContext) {
  ProfileDocument doc = synthetic_document();
  doc.meta.have_sums = false;
  doc.meta.sched.reset();
  const std::string rendered = render_profile_report(doc);
  EXPECT_NE(rendered.find("category hierarchy"), std::string::npos);
  EXPECT_NE(rendered.find("worker lanes"), std::string::npos);
}

}  // namespace
}  // namespace rooftune::trace

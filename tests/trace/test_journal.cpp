// TraceJournal serialization: golden-file schema stability, stop-reason
// round-tripping through the parser, and reader strictness.

#include "trace/journal.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/commands.hpp"
#include "core/autotuner.hpp"
#include "core/search_space.hpp"
#include "core/trace_events.hpp"
#include "trace/reader.hpp"
#include "util/strings.hpp"
#include "../core/fake_backend.hpp"

namespace rooftune::trace {
namespace {

using core::StopReason;
using Kind = core::TraceEvent::Kind;

core::Configuration config_x(std::int64_t x) {
  return core::Configuration({{"x", x}});
}

/// Serialized journal of a tiny scripted run: two configurations, two
/// invocations each, on the fully deterministic FakeBackend.
std::string scripted_journal() {
  core::SearchSpace space;
  space.add_range(core::ParameterRange("x", {1, 2}));

  core::TunerOptions options;
  options.invocations = 2;
  options.iterations = 3;

  core::testing::FakeBackend backend(100.0);
  backend.set_value(config_x(2), 150.0);

  TraceJournal journal;
  options.trace = &journal;
  const core::TuningRun run = core::Autotuner(space, options).run(backend);

  journal.begin_run({"fake", backend.metric_name(), "exhaustive"});
  RunSummary summary;
  summary.configs = run.results.size();
  summary.pruned = run.pruned_configs;
  summary.invocations = run.total_invocations;
  summary.iterations = run.total_iterations;
  summary.best = run.best_value();
  journal.finish_run(summary);
  return journal.str();
}

// The serialized journal for the scripted run above, checked in verbatim.
// FakeBackend values are programmed constants and every duration is exact
// in binary floating point, so this text is portable; a diff here means
// the schema changed and docs/observability.md must change with it.
const char kGoldenJournal[] =
    R"({"t":"run","v":1,"benchmark":"fake","metric":"widgets/s","strategy":"exhaustive"}
{"t":"stop","epoch":0,"ord":0,"inv":0,"rank":1,"cfg":{"x":1},"level":"iteration","reason":"max-count","count":3,"mean":100,"ci":[100,100],"kernel_s":0.03,"incumbent":null}
{"t":"invocation","epoch":0,"ord":0,"inv":0,"rank":2,"cfg":{"x":1},"reason":"max-count","iterations":3,"kernel_s":0.03,"setup_s":0.1,"wall_s":0.13,"det":false,"mean":100,"stddev":0,"rising":false}
{"t":"stop","epoch":0,"ord":0,"inv":1,"rank":1,"cfg":{"x":1},"level":"iteration","reason":"max-count","count":3,"mean":100,"ci":[100,100],"kernel_s":0.03,"incumbent":null}
{"t":"invocation","epoch":0,"ord":0,"inv":1,"rank":2,"cfg":{"x":1},"reason":"max-count","iterations":3,"kernel_s":0.03,"setup_s":0.1,"wall_s":0.13,"det":false,"mean":100,"stddev":0,"rising":false}
{"t":"stop","epoch":0,"ord":0,"inv":1,"rank":3,"cfg":{"x":1},"level":"invocation","reason":"max-count","count":2,"mean":100,"ci":[100,100],"incumbent":null}
{"t":"config-done","epoch":0,"ord":0,"inv":1,"rank":4,"cfg":{"x":1},"reason":"max-count","value":100,"pruned":false,"iterations":6,"kernel_s":0.06,"setup_s":0.2}
{"t":"incumbent","epoch":0,"ord":0,"inv":1,"rank":7,"cfg":{"x":1},"value":100}
{"t":"stop","epoch":1,"ord":1,"inv":0,"rank":1,"cfg":{"x":2},"level":"iteration","reason":"max-count","count":3,"mean":150,"ci":[150,150],"kernel_s":0.03,"incumbent":100}
{"t":"invocation","epoch":1,"ord":1,"inv":0,"rank":2,"cfg":{"x":2},"reason":"max-count","iterations":3,"kernel_s":0.03,"setup_s":0.1,"wall_s":0.13,"det":false,"mean":150,"stddev":0,"rising":false}
{"t":"stop","epoch":1,"ord":1,"inv":1,"rank":1,"cfg":{"x":2},"level":"iteration","reason":"max-count","count":3,"mean":150,"ci":[150,150],"kernel_s":0.03,"incumbent":100}
{"t":"invocation","epoch":1,"ord":1,"inv":1,"rank":2,"cfg":{"x":2},"reason":"max-count","iterations":3,"kernel_s":0.03,"setup_s":0.1,"wall_s":0.13,"det":false,"mean":150,"stddev":0,"rising":false}
{"t":"stop","epoch":1,"ord":1,"inv":1,"rank":3,"cfg":{"x":2},"level":"invocation","reason":"max-count","count":2,"mean":150,"ci":[150,150],"incumbent":100}
{"t":"config-done","epoch":1,"ord":1,"inv":1,"rank":4,"cfg":{"x":2},"reason":"max-count","value":150,"pruned":false,"iterations":6,"kernel_s":0.06,"setup_s":0.2}
{"t":"incumbent","epoch":1,"ord":1,"inv":1,"rank":7,"cfg":{"x":2},"value":150}
{"t":"summary","configs":2,"pruned":0,"invocations":4,"iterations":12,"best":150}
)";

TEST(TraceJournal, GoldenFile) {
  EXPECT_EQ(scripted_journal(), kGoldenJournal);
}

TEST(TraceJournal, GoldenFileIsStableAcrossRuns) {
  EXPECT_EQ(scripted_journal(), scripted_journal());
}

TEST(TraceJournal, GoldenFileRoundTripsThroughReader) {
  const Journal parsed = read_journal(scripted_journal());
  EXPECT_EQ(parsed.header.benchmark, "fake");
  EXPECT_EQ(parsed.header.metric, "widgets/s");
  EXPECT_EQ(parsed.header.strategy, "exhaustive");
  EXPECT_EQ(parsed.header.version, 1);
  ASSERT_TRUE(parsed.summary.has_value());
  EXPECT_EQ(parsed.summary->configs, 2u);
  EXPECT_EQ(parsed.summary->invocations, 4u);
  EXPECT_EQ(parsed.summary->iterations, 12u);
  ASSERT_TRUE(parsed.summary->best.has_value());
  EXPECT_EQ(*parsed.summary->best, 150.0);

  // 2 configs x (2 invocations x (stop + span) + outer stop + config-done)
  // + 2 incumbent updates.
  EXPECT_EQ(parsed.records.size(), 14u);
}

TEST(TraceJournal, EveryStopReasonRoundTrips) {
  for (const StopReason reason :
       {StopReason::None, StopReason::MaxTime, StopReason::MaxCount,
        StopReason::Converged, StopReason::PrunedByBest}) {
    TraceJournal journal;
    journal.begin_run({"fake", "widgets/s", "exhaustive"});

    core::TraceEvent stop;
    stop.kind = Kind::StopDecision;
    stop.rank = 1;
    stop.reason = reason;
    stop.config = config_x(1);
    journal.emit(stop);

    core::TraceEvent done;
    done.kind = Kind::ConfigDone;
    done.rank = 4;
    done.reason = reason;
    done.config = config_x(1);
    journal.emit(done);

    const Journal parsed = read_journal(journal.str());
    ASSERT_EQ(parsed.records.size(), 2u) << core::to_string(reason);
    EXPECT_EQ(parsed.records[0].reason, reason) << core::to_string(reason);
    EXPECT_EQ(parsed.records[1].reason, reason) << core::to_string(reason);
  }
}

const std::vector<std::string> kEscapedNames = {
    "quote\"d", "back\\slash", "ctrl\x01\x1f\t\n", "caf\xc3\xa9 \xe2\x82\xac",
    "plain"};

/// A journal whose parameter names and header strings need escaping.
std::string escaped_key_journal() {
  const std::vector<std::string>& names = kEscapedNames;
  TraceJournal journal;
  journal.begin_run({"b\"ench\\", "m\x02", "exhaustive"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    core::TraceEvent done;
    done.kind = Kind::ConfigDone;
    done.config_ordinal = i;
    done.rank = 4;
    done.reason = StopReason::MaxCount;
    done.config = core::Configuration(
        {{names[i], static_cast<std::int64_t>(i)}, {"x", -7}});
    journal.emit(done);
  }
  return journal.str();
}

// Parameter names are written as JSON keys straight into the journal's one
// buffer; quotes, backslashes, control bytes and multi-byte UTF-8 must come
// back from the reader unchanged.
TEST(TraceJournal, EscapedConfigKeysRoundTrip) {
  const std::vector<std::string>& names = kEscapedNames;
  const Journal parsed = read_journal(escaped_key_journal());
  EXPECT_EQ(parsed.header.benchmark, "b\"ench\\");
  EXPECT_EQ(parsed.header.metric, "m\x02");
  ASSERT_EQ(parsed.records.size(), names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    const core::Configuration& config = parsed.config(parsed.records[i]);
    ASSERT_EQ(config.size(), 2u) << i;
    EXPECT_TRUE(config.has(names[i])) << i;
    EXPECT_EQ(config.at(names[i]), static_cast<std::int64_t>(i));
    EXPECT_EQ(config.at("x"), -7);
  }
}

TEST(TraceReader, RejectsUnknownStopReason) {
  const std::string text =
      "{\"t\":\"run\",\"v\":1,\"benchmark\":\"fake\",\"metric\":\"m\","
      "\"strategy\":\"exhaustive\"}\n"
      "{\"t\":\"config-done\",\"epoch\":0,\"ord\":0,\"inv\":0,\"rank\":4,"
      "\"reason\":\"coffee-break\",\"value\":1,\"pruned\":false,"
      "\"iterations\":1,\"kernel_s\":0,\"setup_s\":0}\n";
  EXPECT_THROW((void)read_journal(text), std::runtime_error);
}

TEST(TraceReader, RejectsUnknownRecordType) {
  const std::string text =
      "{\"t\":\"run\",\"v\":1,\"benchmark\":\"fake\",\"metric\":\"m\","
      "\"strategy\":\"exhaustive\"}\n"
      "{\"t\":\"mystery\",\"epoch\":0,\"ord\":0,\"inv\":0,\"rank\":0}\n";
  EXPECT_THROW((void)read_journal(text), std::runtime_error);
}

// Counter-prune records — both shapes: the measured-signature prune
// (count > 0, rank 5) and the calibrated pre-invocation skip (count == 0,
// rank 1) — must survive the strict reader with every field intact.
TEST(TraceJournal, CounterPruneRecordsRoundTrip) {
  TraceJournal journal;
  journal.begin_run({"dgemm", "GFLOP/s", "racing"});

  core::TraceEvent prune;
  prune.kind = Kind::CounterPrune;
  prune.epoch = 2;
  prune.config_ordinal = 7;
  prune.invocation = 2;
  prune.rank = 5;
  prune.config = config_x(7);
  prune.basis = "dram-bound";
  prune.bound = 61.25;
  prune.margin = 0.25;
  prune.oi = 0.957;
  prune.widened = true;
  prune.incumbent = 412.5;
  prune.count = 2;
  prune.mean = 44.875;
  journal.emit(prune);

  core::TraceEvent skip;
  skip.kind = Kind::CounterPrune;
  skip.epoch = 3;
  skip.config_ordinal = 21;
  skip.invocation = 3;
  skip.rank = 1;  // pre-invocation: before the round's invocation span
  skip.config = config_x(21);
  skip.basis = "dram-bound";
  skip.bound = 12.5;
  skip.margin = 0.25;
  skip.oi = 0.195;  // predicted, not measured
  skip.widened = false;
  skip.incumbent = 412.5;
  skip.count = 0;  // never invoked
  skip.mean = 0.0;
  journal.emit(skip);

  const Journal parsed = read_journal(journal.str());
  ASSERT_EQ(parsed.records.size(), 2u);
  const JournalRecord& p = parsed.records[0];
  EXPECT_EQ(p.kind, Kind::CounterPrune);
  EXPECT_EQ(p.epoch, 2u);
  EXPECT_EQ(p.config_ordinal, 7u);
  EXPECT_EQ(p.rank, 5);
  EXPECT_EQ(parsed.label(p), "dram-bound");
  EXPECT_DOUBLE_EQ(p.bound, 61.25);
  EXPECT_DOUBLE_EQ(p.margin, 0.25);
  ASSERT_TRUE(p.oi.has_value());
  EXPECT_DOUBLE_EQ(*p.oi, 0.957);
  EXPECT_TRUE(p.widened);
  ASSERT_TRUE(p.incumbent.has_value());
  EXPECT_DOUBLE_EQ(*p.incumbent, 412.5);
  EXPECT_EQ(p.count, 2u);
  EXPECT_DOUBLE_EQ(p.mean, 44.875);

  const JournalRecord& s = parsed.records[1];
  EXPECT_EQ(s.rank, 1);
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.bound, 12.5);
  ASSERT_TRUE(s.oi.has_value());
  EXPECT_DOUBLE_EQ(*s.oi, 0.195);
  EXPECT_FALSE(s.widened);
}

TEST(TraceReader, ParsesPerfDegradedRunHeader) {
  const std::string text =
      "{\"t\":\"run\",\"v\":1,\"benchmark\":\"dgemm\",\"metric\":\"GFLOP/s\","
      "\"strategy\":\"racing\",\"perf_degraded\":"
      "\"perf_event_paranoid forbids counters\"}\n";
  const Journal parsed = read_journal(text);
  EXPECT_EQ(parsed.header.perf_degraded,
            "perf_event_paranoid forbids counters");
}

TEST(TraceReader, RequiresHeader) {
  EXPECT_THROW((void)read_journal("{\"t\":\"round\",\"epoch\":0,\"ord\":0,"
                                  "\"inv\":0,\"rank\":6,\"before\":1,"
                                  "\"after\":1,\"eliminated\":0,"
                                  "\"finished\":0}\n"),
               std::runtime_error);
}

// Every parse failure — malformed JSON, a missing key caught by the
// JsonValue accessors, an unknown tag — names the journal line and shows a
// prefix of the offending text, so a truncated or hand-edited journal is
// diagnosable without opening it in an editor.
TEST(TraceReader, ParseErrorsReportLineNumberAndOffendingLine) {
  const std::string header =
      "{\"t\":\"run\",\"v\":1,\"benchmark\":\"fake\",\"metric\":\"m\","
      "\"strategy\":\"exhaustive\"}\n";

  const auto expect_context = [](const std::string& text,
                                 const std::string& line_tag,
                                 const std::string& prefix_fragment) {
    try {
      (void)read_journal(text);
      FAIL() << "expected read_journal to throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(line_tag), std::string::npos) << what;
      EXPECT_NE(what.find("offending line:"), std::string::npos) << what;
      EXPECT_NE(what.find(prefix_fragment), std::string::npos) << what;
    }
  };

  // Malformed JSON on line 2.
  expect_context(header + "{\"t\":\"round\",,,\n", "trace journal line 2",
                 "{\"t\":\"round\",,,");
  // Missing required key ("value") on line 2: the accessor throw gets the
  // same context.
  expect_context(header +
                     "{\"t\":\"incumbent\",\"epoch\":0,\"ord\":0,\"inv\":0,"
                     "\"rank\":3}\n",
                 "trace journal line 2", "\"t\":\"incumbent\"");
  // Unknown record type on line 3 (after a blank line-free record).
  expect_context(header +
                     "{\"t\":\"round\",\"epoch\":0,\"ord\":0,\"inv\":0,"
                     "\"rank\":6,\"before\":1,\"after\":1,\"eliminated\":0,"
                     "\"finished\":0}\n"
                     "{\"t\":\"mystery\"}\n",
                 "trace journal line 3", "mystery");
}

TEST(TraceReader, LongOffendingLinesAreTruncatedInErrors) {
  std::string long_line = "{\"t\":\"mystery\",\"pad\":\"";
  long_line.append(300, 'x');
  long_line += "\"}";
  try {
    (void)read_journal(
        "{\"t\":\"run\",\"v\":1,\"benchmark\":\"fake\",\"metric\":\"m\","
        "\"strategy\":\"exhaustive\"}\n" +
        long_line + "\n");
    FAIL() << "expected read_journal to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("..."), std::string::npos) << what;
    EXPECT_LT(what.size(), long_line.size()) << "error must truncate";
  }
}

/// The journal of a simulated grid-4 DGEMM run with `options`.
std::string grid4_journal(std::initializer_list<std::string> options) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rooftune_chunked_read.jsonl").string();
  std::vector<std::string> args = {"dgemm", "--machine", "gold6148", "--grid-scale",
                                   "4", "--trace", path};
  args.insert(args.end(), options);
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli(args, out, err), 0) << err.str();
  std::string text = util::read_text_file(path).value_or("");
  std::filesystem::remove(path);
  return text;
}

/// The journal read in `chunks` chunks, or the error it was refused with.
struct ChunkedRead {
  std::optional<Journal> journal;
  std::string error;
};

ChunkedRead read_in_chunks(const std::string& text, std::size_t chunks) {
  ChunkedRead read;
  try {
    read.journal = detail::read_journal(text, chunks);
  } catch (const std::exception& e) {
    read.error = e.what();
  }
  return read;
}

/// Reads at 2, 3 and 7 chunks equal the one-chunk read: the same Journal,
/// tables and indices included, or the same error text.
void expect_chunk_invariant(const std::string& name, const std::string& text) {
  const ChunkedRead one = read_in_chunks(text, 1);
  for (const std::size_t chunks : {2, 3, 7}) {
    const ChunkedRead many = read_in_chunks(text, chunks);
    EXPECT_EQ(many.error, one.error) << name << " at " << chunks << " chunks";
    EXPECT_TRUE(many.journal == one.journal) << name << " at " << chunks << " chunks";
  }
}

// The parallel reader cuts a journal at line boundaries, parses the chunks
// on threads and merges them; where the cuts fall must not show in what it
// returns, nor in which line a refusal names.
TEST(TraceReader, ChunkedReadMatchesOneChunk) {
  const std::string racing = grid4_journal({"--strategy", "racing"});
  ASSERT_GT(racing.size(), 1u << 20);
  const std::vector<std::pair<std::string, std::string>> journals = {
      {"golden", kGoldenJournal},
      {"escaped keys", escaped_key_journal()},
      {"grid-4 racing", racing},
      {"grid-4 surrogate", grid4_journal({"--strategy", "surrogate"})},
      {"grid-4 counter-prune",
       grid4_journal({"--strategy", "racing", "--counter-prune"})},
  };
  for (const auto& [name, text] : journals) {
    const ChunkedRead one = read_in_chunks(text, 1);
    ASSERT_TRUE(one.journal.has_value()) << name << ": " << one.error;
    EXPECT_FALSE(one.journal->records.empty()) << name;
    EXPECT_TRUE(read_journal(text) == *one.journal) << name;
    expect_chunk_invariant(name, text);
  }

  // Refusals: a provenance line after the records (in a later chunk than
  // the header), a bad line near the end, and no header at all.
  const std::string provenance =
      racing.substr(0, racing.find('\n') + 1);  // the CLI writes one first
  ASSERT_EQ(provenance.rfind("{\"t\":\"provenance\"", 0), 0u) << provenance;
  const std::size_t late = racing.find('\n', racing.size() / 2) + 1;
  const std::string misplaced = racing.substr(0, late) + provenance + racing.substr(late);
  ASSERT_NE(read_in_chunks(misplaced, 1).error.find("must precede"), std::string::npos);
  expect_chunk_invariant("misplaced provenance", misplaced);

  const std::size_t last = racing.rfind('\n', racing.size() - 2) + 1;
  const std::string broken = racing.substr(0, last) + "{\"t\":\"round\",,,\n";
  ASSERT_NE(read_in_chunks(broken, 1).error.find("trace journal line"), std::string::npos);
  expect_chunk_invariant("broken last line", broken);

  const std::size_t header = racing.find("{\"t\":\"run\"");
  const std::string headerless =
      racing.substr(0, header) + racing.substr(racing.find('\n', header) + 1);
  ASSERT_NE(read_in_chunks(headerless, 1).error.find("missing 'run' header"),
            std::string::npos);
  expect_chunk_invariant("no header", headerless);
}

}  // namespace
}  // namespace rooftune::trace

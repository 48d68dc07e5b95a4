// The portable tuning export (schema v1, docs/formats.md): live-run and
// journal-sourced writers, the parse -> re-export byte-identity guarantee,
// bit-identical replay of the recorded optimum under all three search
// strategies and all three simulated kernels, the pinned golden fixture,
// and the newer-schema rejections (export document and trace journal).

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/autotuner.hpp"
#include "core/spaces.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "telemetry/environment.hpp"
#include "trace/export.hpp"
#include "trace/journal.hpp"
#include "trace/reader.hpp"

namespace rooftune::trace {
namespace {

core::TunerOptions small_options(core::SearchStrategy strategy) {
  core::TunerOptions options;
  options.invocations = 3;
  options.iterations = 20;
  options.inner_prune = true;
  options.outer_prune = true;
  options.strategy = strategy;
  return options;
}

std::unique_ptr<core::Backend> backend_for(const std::string& benchmark) {
  simhw::SimOptions sim;
  sim.sockets_used = 1;
  sim.seed = 2021;
  const auto machine = simhw::machine_by_name("2650v4");
  if (benchmark == "spmv") {
    return std::make_unique<simhw::SimSpmvBackend>(machine, sim);
  }
  if (benchmark == "stencil") {
    return std::make_unique<simhw::SimStencilBackend>(machine, sim, 1024);
  }
  return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
}

core::SearchSpace space_for(const std::string& benchmark) {
  if (benchmark == "spmv") return core::spmv_space();
  if (benchmark == "stencil") return core::stencil_space();
  return core::dgemm_narrowed_space();
}

/// The tentpole guarantee: export -> parse -> replay reproduces every
/// configuration value and the optimum bit-identically, and a re-export of
/// the parsed document is byte-identical.
void expect_round_trip(const std::string& benchmark,
                       core::SearchStrategy strategy) {
  const auto space = space_for(benchmark);
  const auto options = small_options(strategy);
  const auto backend = backend_for(benchmark);
  const auto run = core::Autotuner(space, options).run(*backend);
  ASSERT_TRUE(run.best_index.has_value());

  const ExportDocument doc = make_export(
      run, space, benchmark, backend->metric_name(), options,
      telemetry::EnvironmentFingerprint::capture());
  const std::string text = write_export(doc);
  const ExportDocument parsed = parse_export(text);
  EXPECT_EQ(write_export(parsed), text) << benchmark << ": re-export differs";

  const ReplayOutcome outcome = replay_export(parsed);
  EXPECT_TRUE(outcome.ok()) << benchmark << ": " << outcome.first_mismatch;
  EXPECT_EQ(outcome.configs, run.results.size());
  EXPECT_EQ(outcome.replayed_best_index, run.best_index);
  EXPECT_EQ(outcome.replayed_best_value, run.best_value());
}

TEST(Export, RoundTripSpmvAllStrategies) {
  expect_round_trip("spmv", core::SearchStrategy::Exhaustive);
  expect_round_trip("spmv", core::SearchStrategy::Racing);
  expect_round_trip("spmv", core::SearchStrategy::Surrogate);
}

TEST(Export, RoundTripStencilAllStrategies) {
  expect_round_trip("stencil", core::SearchStrategy::Exhaustive);
  expect_round_trip("stencil", core::SearchStrategy::Racing);
  expect_round_trip("stencil", core::SearchStrategy::Surrogate);
}

TEST(Export, RoundTripDgemmAllStrategies) {
  expect_round_trip("dgemm", core::SearchStrategy::Exhaustive);
  expect_round_trip("dgemm", core::SearchStrategy::Racing);
  expect_round_trip("dgemm", core::SearchStrategy::Surrogate);
}

TEST(Export, JournalReconstructionReplaysBitIdentically) {
  TraceJournal journal;
  auto options = small_options(core::SearchStrategy::Exhaustive);
  options.trace = &journal;
  const auto space = core::spmv_space();
  const auto backend = backend_for("spmv");
  const auto run = core::Autotuner(space, options).run(*backend);
  journal.begin_run({"spmv", backend->metric_name(),
                     core::to_string(options.strategy)});
  journal.finish_run({});

  const Journal parsed_journal = read_journal(journal.str());
  const ExportDocument doc =
      export_from_journal(parsed_journal, core::spmv_space());
  EXPECT_EQ(doc.benchmark, "spmv");
  EXPECT_EQ(doc.results.size(), run.results.size());
  EXPECT_EQ(doc.best_index, run.best_index);

  const ReplayOutcome outcome = replay_export(doc);
  EXPECT_TRUE(outcome.ok()) << outcome.first_mismatch;

  // Byte-identity holds for journal-sourced documents too.
  EXPECT_EQ(write_export(parse_export(write_export(doc))), write_export(doc));
}

TEST(Export, EnvironmentFingerprintRoundTrips) {
  telemetry::EnvironmentFingerprint env;
  env.cpu_model = "Test CPU";
  env.uarch = "testarch";
  env.logical_cpus = 8;
  env.physical_cores = 4;
  env.smt = 2;
  env.numa_nodes = 1;
  env.governor = "performance";
  env.freq_min_khz = 1200000;
  env.freq_max_khz = 3000000;
  env.turbo = "off";
  env.thp = "madvise";
  env.aslr = "2";
  env.compiler = "g++ 13";
  env.build = "Release";

  ExportDocument doc;
  doc.benchmark = "env";
  doc.metric = "GFLOP/s";
  doc.technique.strategy = "exhaustive";
  doc.environment = env;
  doc.space.add_range(core::ParameterRange("n", {1}));

  const ExportDocument parsed = parse_export(write_export(doc));
  ASSERT_TRUE(parsed.environment.has_value());
  EXPECT_EQ(parsed.environment->stable_hash(), env.stable_hash());
  EXPECT_EQ(parsed.environment->cpu_model, "Test CPU");
}

// The environment object reads like the journal's provenance record: a
// missing key is "unknown" or 0, and a key of the wrong type (or an
// environment that is not an object) is refused with its line and column.
TEST(Export, EnvironmentToleratesMissingKeysAndLocatesMistypedOnes) {
  telemetry::EnvironmentFingerprint env;
  env.cpu_model = "Test CPU";
  env.uarch = "testarch";
  env.smt = 2;
  env.freq_max_khz = 3000000;
  ExportDocument doc;
  doc.benchmark = "env";
  doc.metric = "GFLOP/s";
  doc.technique.strategy = "exhaustive";
  doc.environment = env;
  doc.space.add_range(core::ParameterRange("n", {1}));
  std::string base = write_export(doc);
  base.replace(base.find("\"environment\":{"), 15, "\"environment\":\n{");

  const auto edited = [&](const std::string& from, const std::string& to) {
    std::string text = base;
    const auto pos = text.find(from);
    EXPECT_NE(pos, std::string::npos) << from;
    if (pos != std::string::npos) text.replace(pos, from.size(), to);
    return text;
  };
  const ExportDocument missing = parse_export(edited("\"cpu\":\"Test CPU\",", ""));
  ASSERT_TRUE(missing.environment.has_value());
  EXPECT_EQ(missing.environment->cpu_model, "unknown");
  EXPECT_EQ(missing.environment->uarch, "testarch");
  const ExportDocument no_numbers = parse_export(edited("\"smt\":2,", ""));
  EXPECT_EQ(no_numbers.environment->smt, 0);
  EXPECT_EQ(no_numbers.environment->freq_max_khz, 3000000);

  struct Row {
    const char* name;
    std::string from;
    std::string to;
    std::size_t at;  // offset in `to` of the refused value
    std::string reason;
  };
  const std::vector<Row> rows = {
      {"string key holding a number", "\"cpu\":\"Test CPU\"", "\"cpu\":7", 6,
       "not a string"},
      {"integer key holding a string", "\"smt\":2", "\"smt\":\"2\"", 6,
       "not a number"},
      {"integer key holding a fraction", "\"freq_max_khz\":3000000",
       "\"freq_max_khz\":1.5", 15, "not integral"},
      // The original object becomes the value of a key the reader ignores.
      {"environment not an object", "\"environment\":\n{",
       "\"environment\":\n[],\"ignored\":{", 15, "not a object"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    std::string text = base;
    const auto pos = text.find(row.from);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, row.from.size(), row.to);
    const std::size_t value_at = pos + row.at;
    const std::size_t column = value_at - text.rfind('\n', value_at);
    try {
      (void)parse_export(text);
      ADD_FAILURE() << "expected parse_export to throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(row.reason), std::string::npos) << what;
      EXPECT_NE(what.find("(line 2, column " + std::to_string(column) + ")"), std::string::npos)
          << what;
    }
  }
}

// Pinned schema-v1 fixture: these exact bytes must keep parsing (and
// re-serializing to themselves) for as long as kExportSchemaVersion == 1.
// A failure here means the written format changed without a version bump.
constexpr const char kGoldenV1[] =
    R"({"format":"rooftune-export","version":1,"benchmark":"golden","metric":"GFLOP/s","technique":{"strategy":"exhaustive","order":"forward","invocations":2,"iterations":4,"timeout_s":10},"environment":null,"space":{"params":[{"name":"n","values":[1,2]}],"constraints":[]},"results":[{"config":{"n":1},"value":10.5,"pruned":false,"stop":"max-count","iterations":8,"kernel_s":0.5,"setup_s":1,"invocations":[{"mean":10.5,"stddev":0,"iterations":4,"stop":"max-count","kernel_s":0.25,"setup_s":0.5,"wall_s":1},{"mean":10.5,"stddev":0,"iterations":4,"stop":"max-count","kernel_s":0.25,"setup_s":0.5,"wall_s":1}]},{"config":{"n":2},"value":12.25,"pruned":false,"stop":"max-count","iterations":8,"kernel_s":0.5,"setup_s":1,"invocations":[{"mean":12.25,"stddev":0,"iterations":4,"stop":"max-count","kernel_s":0.25,"setup_s":0.5,"wall_s":1},{"mean":12.25,"stddev":0,"iterations":4,"stop":"max-count","kernel_s":0.25,"setup_s":0.5,"wall_s":1}]}],"best":{"index":1,"config":{"n":2},"value":12.25}})";

ExportDocument golden_document() {
  ExportDocument doc;
  doc.benchmark = "golden";
  doc.metric = "GFLOP/s";
  doc.technique.strategy = "exhaustive";
  doc.technique.order = "forward";
  doc.technique.invocations = 2;
  doc.technique.iterations = 4;
  doc.technique.timeout_s = 10.0;
  doc.space.add_range(core::ParameterRange("n", {1, 2}));
  for (int n = 1; n <= 2; ++n) {
    ExportConfigResult r;
    r.config = core::Configuration({{"n", n}});
    r.value = n == 1 ? 10.5 : 12.25;
    r.stop = "max-count";
    r.iterations = 8;
    r.kernel_s = 0.5;
    r.setup_s = 1.0;
    for (int j = 0; j < 2; ++j) {
      ExportInvocation inv;
      inv.mean = r.value;
      inv.iterations = 4;
      inv.stop = "max-count";
      inv.kernel_s = 0.25;
      inv.setup_s = 0.5;
      inv.wall_s = 1.0;
      r.invocations.push_back(inv);
    }
    doc.results.push_back(std::move(r));
  }
  doc.best_index = 1;
  return doc;
}

TEST(Export, GoldenV1FixtureIsPinned) {
  EXPECT_EQ(write_export(golden_document()), kGoldenV1);
  const ExportDocument parsed = parse_export(kGoldenV1);
  EXPECT_EQ(parsed.version, 1);
  EXPECT_EQ(parsed.benchmark, "golden");
  ASSERT_EQ(parsed.results.size(), 2u);
  EXPECT_EQ(parsed.best_index, std::optional<std::size_t>(1));
  EXPECT_EQ(write_export(parsed), kGoldenV1);
  const ReplayOutcome outcome = replay_export(parsed);
  EXPECT_TRUE(outcome.ok()) << outcome.first_mismatch;
}

TEST(Export, RejectsNewerSchemaVersionWithDistinctError) {
  std::string newer = kGoldenV1;
  const auto pos = newer.find("\"version\":1");
  ASSERT_NE(pos, std::string::npos);
  newer.replace(pos, 11, "\"version\":99");
  try {
    (void)parse_export(newer);
    FAIL() << "expected parse_export to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("schema version 99"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("newer"), std::string::npos);
  }
}

TEST(Export, RejectsNonExportDocuments) {
  EXPECT_THROW((void)parse_export("{\"format\":\"something-else\"}"),
               std::runtime_error);
  EXPECT_THROW((void)parse_export("not json at all"), std::runtime_error);
}

TEST(Export, MalformedJsonReportsLineAndColumn) {
  try {
    (void)parse_export("{\n  \"format\": \"rooftune-export\",\n  oops\n}");
    FAIL() << "expected parse_export to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("export: malformed JSON"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("column"), std::string::npos) << what;
  }
}

// A well-formed document naming a stop reason the tuner does not know is
// refused with the value's line and column, like a syntax error.
TEST(Export, UnknownStopReasonReportsLineAndColumn) {
  std::string text = kGoldenV1;
  text.replace(text.find("\"results\":["), 11, "\"results\":\n[");
  const std::string stop = "\"stop\":\"max-count\"";
  // The second stop is the first invocation record's.
  const auto pos = text.find(stop, text.find(stop) + 1);
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, stop.size(), "\"stop\":\"bogus\"");
  const std::size_t value_at = pos + 7;  // the opening quote of "bogus"
  const std::size_t column = value_at - text.rfind('\n', value_at);
  try {
    (void)parse_export(text);
    FAIL() << "expected parse_export to throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown stop reason 'bogus' in an invocation record"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("(line 2, column " + std::to_string(column) + ")"),
              std::string::npos)
        << what;
  }
}

// Every refusal of a well-formed document names the offending value's line
// and column: a configuration that is not a point of its space (value out
// of range, missing or extra parameter, violated constraint) and a `best`
// that names no result or disagrees with the result it names.
TEST(Export, SpaceRefusalsReportLineAndColumn) {
  ExportDocument doc = golden_document();
  doc.space = core::SearchSpace();
  doc.space.add_range(core::ParameterRange("n", {1, 2}));
  doc.space.add_range(core::ParameterRange("m", {1, 2}));
  doc.space.add_constraint(core::ConstraintSpec{"m", core::ConstraintSpec::Op::Le, "n", 0});
  doc.results[0].config = core::Configuration({{"n", 1}, {"m", 1}});
  doc.results[1].config = core::Configuration({{"n", 2}, {"m", 1}});
  std::string base = write_export(doc);
  base.replace(base.find("\"results\":["), 11, "\"results\":\n[");
  ASSERT_EQ(write_export(parse_export(base)), write_export(doc));

  struct Row {
    const char* name;
    std::string from;    // first occurrence is replaced ...
    std::string to;      // ... by this
    std::size_t at;      // offset in `to` of the refused value
    std::string reason;  // expected in the message
  };
  const std::vector<Row> rows = {
      {"value out of range", R"("config":{"n":2,"m":1})", R"("config":{"n":3,"m":1})", 9,
       "value 3 not in range 'n'"},
      {"missing parameter", R"("config":{"n":2,"m":1})", R"("config":{"n":2})", 9,
       "parameter 'm' missing"},
      {"extra parameter", R"("config":{"n":2,"m":1})", R"("config":{"n":2,"m":1,"x":5})", 9,
       "has parameters outside the space definition"},
      {"constraint violation", R"("config":{"n":1,"m":1})", R"("config":{"n":1,"m":2})", 9,
       "constraint 'm<=n' rejects"},
      {"best index out of range", R"("best":{"index":1)", R"("best":{"index":85)", 16,
       "best.index 85 is out of range"},
      {"best config mismatch", R"("best":{"index":1,"config":)", R"("best":{"index":0,"config":)",
       27, "best.config does not match results[best.index].config"},
      {"best config outside the space", R"("best":{"index":1,"config":{"n":2,)",
       R"("best":{"index":1,"config":{"n":7,)", 27, "value 7 not in range 'n'"},
      {"best value mismatch", R"("m":1},"value":12.25})", R"("m":1},"value":99})", 15,
       "best.value does not match results[best.index].value"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    std::string text = base;
    const auto pos = text.find(row.from);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, row.from.size(), row.to);
    const std::size_t value_at = pos + row.at;
    const std::size_t column = value_at - text.rfind('\n', value_at);
    try {
      (void)parse_export(text);
      ADD_FAILURE() << "expected parse_export to throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(row.reason), std::string::npos) << what;
      EXPECT_NE(what.find("(line 2, column " + std::to_string(column) + ")"), std::string::npos)
          << what;
    }
  }
}

TEST(Export, ReplayFlagsTamperedValues) {
  std::string tampered = kGoldenV1;
  const auto pos = tampered.find("\"value\":10.5");
  ASSERT_NE(pos, std::string::npos);
  tampered.replace(pos, 12, "\"value\":11.5");
  const ReplayOutcome outcome = replay_export(parse_export(tampered));
  EXPECT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.value_mismatches, 1u);
  EXPECT_NE(outcome.first_mismatch.find("n=1"), std::string::npos)
      << outcome.first_mismatch;
}

/// One recorded invocation of a hand-built replay document.
struct Recorded {
  double mean;
  std::uint64_t iterations;
  const char* stop;
};

/// A two-configuration document over n in {1, 2}: `first` and `second`
/// are the recorded invocations, `values` the recorded aggregates.
ExportDocument replay_document(std::vector<Recorded> first,
                               std::vector<Recorded> second, double value0,
                               double value1, std::optional<std::size_t> best) {
  ExportDocument doc = golden_document();
  const std::vector<Recorded>* records[] = {&first, &second};
  const double values[] = {value0, value1};
  for (std::size_t i = 0; i < 2; ++i) {
    ExportConfigResult& r = doc.results[i];
    r.value = values[i];
    r.invocations.clear();
    for (const Recorded& rec : *records[i]) {
      ExportInvocation inv;
      inv.mean = rec.mean;
      inv.iterations = rec.iterations;
      inv.stop = rec.stop;
      inv.kernel_s = 0.25;
      r.invocations.push_back(inv);
    }
  }
  doc.best_index = best;
  return doc;
}

// Every ReplayOutcome field, pinned per path through the replay: the
// pruned-invocation exclusion of ConfigResult::value() and its fallback,
// the zero-iteration refusal, tampering with a value or the optimum, the
// first-strictly-greater incumbent rule and an empty document.
TEST(Export, ReplayOutcomesArePinned) {
  const Recorded full{10.5, 4, "max-count"};
  const Recorded best{12.25, 4, "max-count"};
  struct Case {
    const char* name;
    ExportDocument doc;
    ReplayOutcome want;
  };
  ExportDocument empty = golden_document();
  empty.results.clear();
  empty.best_index.reset();
  const std::vector<Case> cases = {
      {"clean", golden_document(), {2, 0, 1, 12.25, true, true, ""}},
      {"every invocation pruned",
       replay_document({{9.0, 4, "pruned-by-best"}, {10.0, 2, "pruned-by-best"}},
                       {best, best}, 9.5, 12.25, 1),
       {2, 0, 1, 12.25, true, true, ""}},
      {"one pruned invocation excluded",
       replay_document({{10.0, 4, "max-count"}, {11.0, 4, "max-count"},
                        {2.0, 1, "pruned-by-best"}},
                       {best, best}, 10.5, 12.25, 1),
       {2, 0, 1, 12.25, true, true, ""}},
      {"zero iterations",
       replay_document({full, {10.5, 0, "max-count"}}, {best, best}, 10.5, 12.25, 1),
       {1, 1, 1, 12.25, true, true, "n=1 invocation 1 records zero iterations"}},
      {"tampered value",
       replay_document({full, full}, {best, best}, 11.5, 12.25, 1),
       {2, 1, 1, 12.25, true, true, "n=1: replayed 10.5 != recorded 11.5"}},
      {"tampered best index",
       replay_document({full, full}, {best, best}, 10.5, 12.25, 0),
       {2, 0, 1, 12.25, false, false, "replayed optimum index 1 != recorded 0"}},
      {"tie keeps the first",
       replay_document({best, best}, {best, best}, 12.25, 12.25, 0),
       {2, 0, 0, 12.25, true, true, ""}},
      {"empty results", empty, {0, 0, std::nullopt, 0.0, true, true, ""}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const ReplayOutcome got = replay_export(c.doc);
    EXPECT_EQ(got.configs, c.want.configs);
    EXPECT_EQ(got.value_mismatches, c.want.value_mismatches);
    EXPECT_EQ(got.replayed_best_index, c.want.replayed_best_index);
    EXPECT_EQ(got.replayed_best_value, c.want.replayed_best_value);
    EXPECT_EQ(got.best_index_matches, c.want.best_index_matches);
    EXPECT_EQ(got.best_value_matches, c.want.best_value_matches);
    EXPECT_EQ(got.first_mismatch, c.want.first_mismatch);
    EXPECT_EQ(got.ok(), c.want.ok());
  }
}

TEST(JournalReader, RejectsNewerSchemaVersionWithDistinctError) {
  const std::string newer =
      "{\"t\":\"run\",\"v\":99,\"benchmark\":\"dgemm\",\"metric\":\"GFLOP/"
      "s\",\"strategy\":\"exhaustive\"}\n";
  try {
    (void)read_journal(newer);
    FAIL() << "expected read_journal to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("journal schema version 99"),
              std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("upgrade rooftune"), std::string::npos);
  }
}

TEST(JournalReader, AcceptsCurrentSchemaVersion) {
  const std::string current =
      "{\"t\":\"run\",\"v\":" + std::to_string(kJournalSchemaVersion) +
      ",\"benchmark\":\"dgemm\",\"metric\":\"GFLOP/s\",\"strategy\":"
      "\"exhaustive\"}\n";
  EXPECT_EQ(read_journal(current).header.version, kJournalSchemaVersion);
}

}  // namespace
}  // namespace rooftune::trace

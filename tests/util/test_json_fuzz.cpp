// Robustness sweep for the JSON parser and every reader built on it.
//
// Random byte soup and mutated valid documents must either parse or throw
// std::invalid_argument — never crash, hang, or return garbage silently.
// The consumer sweeps start from documents the writers produce in-test (a
// small run's journal, its export, a profile, a checkpoint, a search space
// and a roofline model), mutate them with seeded byte flips, deletions,
// duplications and truncations, and feed each to its real reader.  The
// invariant: a valid result, or a std::exception; when the mutation broke
// the JSON itself, the message names a line and column (a journal line
// for the JSONL journal).  Every sweep is seeded and fixed in count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "../core/fake_backend.hpp"
#include "core/autotuner.hpp"
#include "core/session.hpp"
#include "roofline/advisor.hpp"
#include "trace/export.hpp"
#include "trace/journal.hpp"
#include "trace/profile_export.hpp"
#include "trace/reader.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/rng.hpp"

namespace rooftune::util {
namespace {

TEST(JsonFuzz, RandomBytesNeverCrash) {
  Xoshiro256 rng(0xF00D);
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.below(64);
    std::string input;
    input.reserve(len);
    for (std::size_t i = 0; i < len; ++i) {
      input += static_cast<char>(rng.below(256));
    }
    try {
      const JsonValue v = parse_json(input);
      (void)v;  // rarely a valid scalar — fine
    } catch (const std::invalid_argument&) {
      // expected for almost every input
    }
  }
}

TEST(JsonFuzz, RandomPrintableSoupNeverCrashes) {
  Xoshiro256 rng(0xBEEF);
  const std::string alphabet = R"({}[]",:0123456789.eE+-truefalsenull \n)";
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t len = rng.below(48);
    std::string input;
    for (std::size_t i = 0; i < len; ++i) {
      input += alphabet[rng.below(alphabet.size())];
    }
    try {
      (void)parse_json(input);
    } catch (const std::invalid_argument&) {
    }
  }
}

TEST(JsonFuzz, MutatedValidDocuments) {
  // Start from a representative checkpoint-like document, flip bytes.
  JsonWriter w;
  w.begin_object();
  w.key("fingerprint").value("00ffee0011223344");
  w.key("elapsed_seconds").value(123.5);
  w.key("results").begin_array();
  for (int i = 0; i < 3; ++i) {
    w.begin_object();
    w.key("value").value(100.0 + i);
    w.key("pruned").value(i % 2 == 0);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string base = w.str();

  Xoshiro256 rng(0xCAFE);
  int parsed_ok = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    std::string mutated = base;
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      mutated[rng.below(mutated.size())] = static_cast<char>(rng.below(128));
    }
    try {
      (void)parse_json(mutated);
      ++parsed_ok;
    } catch (const std::invalid_argument&) {
    }
  }
  // Some mutations stay valid (e.g. digit swaps); most must be rejected.
  EXPECT_LT(parsed_ok, 3000);
}

TEST(JsonFuzz, PathologicalNestingRejectedOrParsed) {
  // Unbalanced deep nesting must throw, not overflow silently.
  std::string open(2000, '[');
  EXPECT_THROW((void)parse_json(open), std::invalid_argument);
}

// Balanced input far past the limit is rejected at the first bracket past
// kMaxJsonDepth instead of recursing once per level.
TEST(JsonFuzz, BalancedDeepNestingRejected) {
  constexpr std::size_t kDepth = 100000;
  std::string objects;
  for (std::size_t i = 0; i < kDepth; ++i) objects += "{\"a\":";
  objects += "1";
  objects += std::string(kDepth, '}');
  for (const std::string& text :
       {std::string(kDepth, '[') + std::string(kDepth, ']'), objects}) {
    try {
      (void)parse_json(text);
      FAIL() << "expected a nesting error";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("nesting deeper than 512"),
                std::string::npos)
          << e.what();
      EXPECT_NE(parse_error_location(text, e.what()), "");
    }
  }
}

TEST(JsonFuzz, NestingLimitIsExact) {
  const auto nested = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_NO_THROW((void)parse_json(nested(kMaxJsonDepth)));
  try {
    (void)parse_json(nested(kMaxJsonDepth + 1));
    FAIL() << "expected a nesting error";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "parse_json at offset 512: nesting deeper than 512");
  }
}

// Integer conversions are range-checked: a double outside the target type
// is a named error, never an out-of-range cast.
TEST(JsonFuzz, IntegerFieldsRejectUnrepresentableNumbers) {
  const JsonValue doc = parse_json(
      R"({"huge": 1e300, "neg": -1, "frac": 2.5, "ok": 9007199254740992,)"
      R"( "min": -9223372036854775808, "top": 18446744073709551616})");
  for (const char* key : {"huge", "frac", "top"}) {
    EXPECT_THROW((void)doc.at(key).as_int(), std::runtime_error) << key;
    EXPECT_THROW((void)doc.at(key).as_u64(), std::runtime_error) << key;
  }
  EXPECT_THROW((void)doc.at("neg").as_u64(), std::runtime_error);
  EXPECT_EQ(doc.at("neg").as_int(), -1);
  EXPECT_EQ(doc.at("ok").as_u64(), 9007199254740992u);
  EXPECT_EQ(doc.at("min").as_int(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(doc.at("neg").as_i32(), -1);
  for (const char* key : {"huge", "frac", "ok", "min"}) {
    EXPECT_THROW((void)doc.at(key).as_i32(), std::runtime_error) << key;
  }
  try {
    (void)doc.at("huge").as_u64();
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at offset 9: number"), std::string::npos)
        << e.what();
  }

  // Through a reader: the journal names the line.
  const std::string journal =
      R"({"t":"run","v":1,"benchmark":"b","metric":"m","strategy":"exhaustive"})"
      "\n"
      R"({"t":"summary","configs":1,"pruned":0,"invocations":1,"iterations":1e300,"best":null})"
      "\n";
  try {
    (void)trace::read_journal(journal);
    FAIL() << "expected a range error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace journal line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("uint64 range"), std::string::npos)
        << e.what();
  }
  // A version past int is compared before it is narrowed, not wrapped to 1.
  EXPECT_THROW((void)trace::read_journal(
                   R"({"t":"run","v":4294967297,"benchmark":"b","metric":"m",)"
                   R"("strategy":"exhaustive"})"
                   "\n"),
               std::runtime_error);
  // Likewise a rank past int is refused, not wrapped to 1.
  try {
    (void)trace::read_journal(
        R"({"t":"run","v":1,"benchmark":"b","metric":"m","strategy":"exhaustive"})"
        "\n"
        R"({"t":"incumbent","epoch":0,"ord":0,"inv":0,"rank":4294967297,"cfg":{"x":1},)"
        R"("value":1})"
        "\n");
    FAIL() << "expected a range error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("trace journal line 2"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("int range"), std::string::npos) << e.what();
  }
}

// std::from_chars reads subnormals, which value_exact writes, so a document
// holding one round-trips byte-identically.  Overflow is still an error.
TEST(JsonFuzz, SubnormalsRoundTripOverflowIsRejected) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  JsonWriter w;
  w.begin_array().value_exact(tiny).value_exact(2.5e-310).end_array();
  const std::string text = w.str();
  const JsonValue doc = parse_json(text);
  EXPECT_EQ(doc.at(0).as_number(), tiny);
  JsonWriter again;
  again.begin_array()
      .value_exact(doc.at(0).as_number())
      .value_exact(doc.at(1).as_number())
      .end_array();
  EXPECT_EQ(again.str(), text);

  try {
    (void)parse_json("[1e309]");
    FAIL() << "expected an overflow error";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("number out of double range"),
              std::string::npos)
        << e.what();
  }
}

// ---- every reader, over mutated writer output --------------------------------

/// One seeded edit: flip a bit, overwrite, delete, duplicate or truncate.
void mutate_once(std::string& s, Xoshiro256& rng) {
  if (s.empty()) return;
  const std::size_t at = rng.below(s.size());
  switch (rng.below(5)) {
    case 0:
      s[at] = static_cast<char>(s[at] ^ (1 << rng.below(8)));
      break;
    case 1:
      s[at] = static_cast<char>(rng.below(128));
      break;
    case 2:
      s.erase(at, 1 + rng.below(8));
      break;
    case 3:
      s.insert(at, s.substr(at, 1 + rng.below(16)));
      break;
    default:
      s.resize(at);
      break;
  }
}

bool names_line_and_column(const std::string& what) {
  return what.find("line ") != std::string::npos &&
         what.find("column ") != std::string::npos;
}

bool is_json(const std::string& text) {
  try {
    JsonDocument doc(text);
    return true;
  } catch (const std::invalid_argument&) {
    return false;
  }
}

/// Feed `trials` mutations of `base` to `read`; returns how many it
/// accepted.  A rejection of broken JSON must name a line and column.
int sweep(const std::string& base, std::uint64_t seed, int trials,
          const std::function<void(const std::string&)>& read) {
  Xoshiro256 rng(seed);
  int accepted = 0;
  for (int trial = 0; trial < trials; ++trial) {
    std::string text = base;
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t e = 0; e < edits; ++e) mutate_once(text, rng);
    try {
      read(text);
      ++accepted;
    } catch (const std::exception& e) {
      if (!is_json(text)) {
        EXPECT_TRUE(names_line_and_column(e.what()))
            << "trial " << trial << ": " << e.what();
      }
    }
  }
  return accepted;
}

core::SearchSpace small_space() {
  core::SearchSpace space;
  space.add_range(core::ParameterRange("a", {1, 2, 3, 4, 5, 6}));
  space.add_range(core::ParameterRange("b", {8, 16}));
  return space;
}

void program(core::testing::FakeBackend& backend) {
  for (std::int64_t a = 1; a <= 6; ++a) {
    for (std::int64_t b : {8, 16}) {
      backend.set_value(core::Configuration({{"a", a}, {"b", b}}),
                        10.0 * static_cast<double>(a) + static_cast<double>(b));
    }
  }
}

core::TunerOptions racing_options() {
  core::TunerOptions options;
  options.invocations = 4;
  options.iterations = 3;
  options.strategy = core::SearchStrategy::Racing;
  return options;
}

/// A small racing run, as its journal and its export.
struct Artifacts {
  std::string journal;
  std::string exported;
};

Artifacts small_run_artifacts() {
  const core::SearchSpace space = small_space();
  core::TunerOptions options = racing_options();
  core::testing::FakeBackend backend;
  program(backend);
  trace::TraceJournal journal;
  options.trace = &journal;
  const core::TuningRun run = core::Autotuner(space, options).run(backend);
  journal.begin_run({"fake", backend.metric_name(), "racing"});
  trace::RunSummary summary;
  summary.configs = run.results.size();
  summary.pruned = run.pruned_configs;
  summary.invocations = run.total_invocations;
  summary.iterations = run.total_iterations;
  summary.best = run.best_value();
  journal.finish_run(summary);
  options.trace = nullptr;
  const auto doc = trace::make_export(run, space, "fake", backend.metric_name(),
                                      options, std::nullopt);
  return {journal.str(), trace::write_export(doc)};
}

// Each mutation is also read in 1 and in 4 chunks (the parallel reader's
// cut): both give the same Journal or fail with the same text.
TEST(JsonFuzz, MutatedJournalsFailWithTheirLine) {
  const std::string base = small_run_artifacts().journal;
  ASSERT_NO_THROW((void)trace::read_journal(base));
  Xoshiro256 rng(0x10A1);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = base;
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t e = 0; e < edits; ++e) mutate_once(text, rng);
    try {
      (void)trace::read_journal(text);
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("trace journal"), std::string::npos)
          << "trial " << trial << ": " << e.what();
    }
    std::optional<trace::Journal> read[2];
    std::string error[2];
    for (const std::size_t i : {0, 1}) {
      try {
        read[i] = trace::detail::read_journal(text, i == 0 ? 1 : 4);
      } catch (const std::exception& e) {
        error[i] = e.what();
      }
    }
    EXPECT_EQ(error[0], error[1]) << "trial " << trial;
    EXPECT_TRUE(read[0] == read[1]) << "trial " << trial;
  }
}

TEST(JsonFuzz, MutatedExportsFailLocated) {
  const std::string base = small_run_artifacts().exported;
  ASSERT_EQ(trace::write_export(trace::parse_export(base)), base);
  const int accepted = sweep(base, 0xE4, 400, [](const std::string& text) {
    (void)trace::replay_export(trace::parse_export(text));
  });
  EXPECT_LT(accepted, 400);
}

TEST(JsonFuzz, MutatedProfilesFailLocated) {
  ProfileSnapshot snapshot;
  for (int lane = 0; lane < 3; ++lane) {
    ProfileLane l;
    l.thread_name = lane == 0 ? "coordinator" : "worker-" + std::to_string(lane - 1);
    for (std::uint64_t i = 0; i < 6; ++i) {
      ProfileRecord r;
      r.category = i % 2 == 0 ? ProfileCategory::TaskExec : ProfileCategory::Kernel;
      r.start_ns = 1000 * i;
      r.end_ns = 1000 * i + 700;
      r.weight = i % 2 == 0 ? 0.0 : 0.25;
      r.arg = i;
      l.records.push_back(r);
    }
    snapshot.lanes.push_back(std::move(l));
  }
  trace::ProfileMetadata meta;
  meta.benchmark = "fake";
  meta.strategy = "racing";
  const std::string base = trace::write_profile_json(snapshot, meta);
  const trace::ProfileDocument parsed = trace::parse_profile(base);
  ASSERT_EQ(trace::write_profile_json(parsed.snapshot, parsed.meta), base);
  const int accepted = sweep(base, 0x9F, 400, [](const std::string& text) {
    (void)trace::parse_profile(text);
  });
  EXPECT_LT(accepted, 400);
}

TEST(JsonFuzz, MutatedCheckpointsFailLocated) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "rooftune_json_fuzz_ckpt").string();
  std::filesystem::remove(path);

  // Interrupt a session after five invocations: it leaves its checkpoint.
  class DyingBackend final : public core::testing::FakeBackend {
   public:
    void begin_invocation(const core::Configuration& config,
                          std::uint64_t invocation_index) override {
      if (invocations_started() >= 5) throw std::runtime_error("killed");
      FakeBackend::begin_invocation(config, invocation_index);
    }
  };
  core::TunerOptions options;
  options.invocations = 2;
  options.iterations = 3;
  {
    DyingBackend dying;
    program(dying);
    core::TuningSession session(small_space(), options, path);
    EXPECT_THROW((void)session.run(dying), std::runtime_error);
  }
  std::string base;
  {
    std::ifstream in(path);
    base.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  // A header line and one line per completed invocation.
  ASSERT_EQ(std::count(base.begin(), base.end(), '\n'), 6);

  // JSON lines, like the journal: a rejected checkpoint names its line.
  // Mutations that only tear the last line (or keep every line valid)
  // resume and are accepted.
  Xoshiro256 rng(0xC4);
  int accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::string text = base;
    const std::size_t edits = 1 + rng.below(3);
    for (std::size_t e = 0; e < edits; ++e) mutate_once(text, rng);
    std::ofstream(path, std::ios::trunc) << text;
    core::testing::FakeBackend backend;
    program(backend);
    core::TuningSession session(small_space(), options, path);
    try {
      (void)session.run(backend);
      ++accepted;
    } catch (const std::exception& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("checkpoint '" + path + "' line "), std::string::npos)
          << "trial " << trial << ": " << what;
    }
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 300);
  std::filesystem::remove(path);
}

TEST(JsonFuzz, MutatedSearchSpacesFailLocated) {
  core::SearchSpace space = small_space();
  core::ConstraintSpec spec;
  spec.lhs = "a";
  spec.op = core::ConstraintSpec::Op::Le;
  spec.rhs_param = "b";
  space.add_constraint(std::move(spec));
  const std::string base = space.to_json();
  ASSERT_EQ(core::SearchSpace::from_json(base).to_json(), base);
  const int accepted = sweep(base, 0x55, 400, [](const std::string& text) {
    (void)core::SearchSpace::from_json(text).cardinality();
  });
  EXPECT_LT(accepted, 400);
}

TEST(JsonFuzz, MutatedRooflineModelsFailLocated) {
  roofline::RooflineModel model;
  model.machine_name = "fuzz";
  roofline::ComputeCeiling c;
  c.name = "DGEMM 1 socket";
  c.value = GFlops{512.5};
  c.theoretical = GFlops{614.4};
  c.best_config = core::Configuration({{"n", 4000}, {"m", 724}, {"k", 128}});
  model.add_compute(c);
  roofline::MemoryCeiling m;
  m.name = "DRAM 1 socket";
  m.value = GBps{61.25};
  m.theoretical = GBps{76.8};
  m.best_config = core::Configuration({{"N", 1 << 24}});
  model.add_memory(m);
  const std::string base = roofline::to_json(model);
  ASSERT_EQ(roofline::to_json(roofline::model_from_json(base)), base);
  const int accepted = sweep(base, 0x7A, 400, [](const std::string& text) {
    (void)roofline::model_from_json(text);
  });
  EXPECT_LT(accepted, 400);
}

}  // namespace
}  // namespace rooftune::util

#include "telemetry/environment.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>

#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace rooftune::telemetry {
namespace {

util::JsonValue provenance_record(const EnvironmentFingerprint& env) {
  util::JsonWriter w;
  env.write_provenance(w);
  return util::parse_json(w.str());
}

TEST(Environment, CaptureNeverFailsAndFillsBasics) {
  const auto env = EnvironmentFingerprint::capture();
  EXPECT_GE(env.logical_cpus, 1);
  EXPECT_GE(env.physical_cores, 1);
  EXPECT_GE(env.smt, 1);
  EXPECT_GE(env.numa_nodes, 1);
  EXPECT_FALSE(env.cpu_model.empty());
  // The compiler and build type come from macros, never from the machine.
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.build.empty());
  EXPECT_FALSE(env.governor.empty());
  EXPECT_FALSE(env.turbo.empty());
}

TEST(Environment, StableHashIsReproducible) {
  const auto a = EnvironmentFingerprint::capture();
  const auto b = EnvironmentFingerprint::capture();
  EXPECT_EQ(a.stable_hash(), b.stable_hash());
  EXPECT_NE(a.stable_hash(), 0u);
}

TEST(Environment, StableHashIsSensitiveToEveryKnob) {
  const auto base = EnvironmentFingerprint::capture();
  auto changed = base;
  changed.governor = base.governor + "x";
  EXPECT_NE(base.stable_hash(), changed.stable_hash());
  changed = base;
  changed.turbo = base.turbo == "on" ? "off" : "on";
  EXPECT_NE(base.stable_hash(), changed.stable_hash());
  changed = base;
  changed.smt = base.smt + 1;
  EXPECT_NE(base.stable_hash(), changed.stable_hash());
  changed = base;
  changed.freq_max_khz = base.freq_max_khz + 1;
  EXPECT_NE(base.stable_hash(), changed.stable_hash());
}

// Golden field-set test: the provenance record participates in the
// journal's bit-identity guarantee, so its key set is frozen — and it must
// never grow a wall-clock or host-identity field.
TEST(Environment, ProvenanceJsonHasExactlyTheGoldenFieldSet) {
  const auto doc = provenance_record(EnvironmentFingerprint::capture());
  std::set<std::string> keys;
  for (const auto& [key, value] : doc.as_object()) keys.insert(key);

  const std::set<std::string> golden = {
      "t",        "v",        "cpu",          "uarch",        "logical_cpus",
      "cores",    "smt",      "numa",         "governor",     "freq_min_khz",
      "freq_max_khz", "turbo", "thp",         "aslr",         "compiler",
      "build",    "env"};
  EXPECT_EQ(keys, golden);
  for (const char* forbidden : {"time", "timestamp", "date", "hostname", "pid"}) {
    EXPECT_EQ(keys.count(forbidden), 0u) << forbidden;
  }
  EXPECT_EQ(doc.at("t").as_string(), "provenance");
  EXPECT_EQ(doc.at("v").as_int(), 1);
  // env is the stable hash as fixed-width hex (JSON doubles cannot carry
  // 64-bit integers exactly).
  EXPECT_EQ(doc.at("env").as_string().size(), 16u);
}

TEST(Environment, ProvenanceRoundTripsThroughParse) {
  const auto env = EnvironmentFingerprint::capture();
  const auto restored = parse_provenance(provenance_record(env));
  EXPECT_EQ(restored.cpu_model, env.cpu_model);
  EXPECT_EQ(restored.uarch, env.uarch);
  EXPECT_EQ(restored.logical_cpus, env.logical_cpus);
  EXPECT_EQ(restored.physical_cores, env.physical_cores);
  EXPECT_EQ(restored.smt, env.smt);
  EXPECT_EQ(restored.numa_nodes, env.numa_nodes);
  EXPECT_EQ(restored.governor, env.governor);
  EXPECT_EQ(restored.freq_min_khz, env.freq_min_khz);
  EXPECT_EQ(restored.freq_max_khz, env.freq_max_khz);
  EXPECT_EQ(restored.turbo, env.turbo);
  EXPECT_EQ(restored.thp, env.thp);
  EXPECT_EQ(restored.aslr, env.aslr);
  EXPECT_EQ(restored.compiler, env.compiler);
  EXPECT_EQ(restored.build, env.build);
  EXPECT_EQ(restored.stable_hash(), env.stable_hash());
}

// One reader for both artifacts: a missing key reads as "unknown" or 0, a
// key of the wrong type is refused naming the value's offset.
TEST(Environment, ReadFieldsDefaultsMissingKeysAndRefusesMistypedOnes) {
  const auto env = parse_provenance(
      util::parse_json(R"({"t":"provenance","v":1,"cpu":"X","numa":2})"));
  EXPECT_EQ(env.cpu_model, "X");
  EXPECT_EQ(env.numa_nodes, 2);
  EXPECT_EQ(env.uarch, "unknown");
  EXPECT_EQ(env.build, "unknown");
  EXPECT_EQ(env.smt, 0);
  EXPECT_EQ(env.freq_max_khz, 0);

  for (const char* text : {R"({"cpu":"X","smt":"2"})", R"({"cpu":7})",
                           R"({"freq_min_khz":0.5})"}) {
    try {
      (void)EnvironmentFingerprint::read_fields(util::parse_json(text));
      ADD_FAILURE() << "accepted " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("at offset"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)EnvironmentFingerprint::read_fields(util::parse_json("[1]")),
               std::runtime_error);
}

TEST(Environment, ParseRejectsNonProvenanceRecords) {
  EXPECT_THROW(parse_provenance(util::parse_json(R"({"t":"run","v":1})")),
               std::runtime_error);
}

}  // namespace
}  // namespace rooftune::telemetry

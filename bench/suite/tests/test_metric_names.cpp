// The names the harness emits are the names BENCHMARK.json declares: the
// same sets, units and workloads, every name made of [A-Za-z0-9_.-].

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>

#include "harness/metrics.hpp"
#include "harness/run_loop.hpp"
#include "harness/workload.hpp"
#include "util/json_parse.hpp"

namespace rooftune::suite {
namespace {

util::JsonValue benchmark_json() {
  std::ifstream in(SUITE_BENCHMARK_JSON);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return util::parse_json(buffer.str());
}

/// name -> "unit better" of one BENCHMARK.json metric list.
std::map<std::string, std::string> declared(const char* list) {
  const util::JsonValue doc = benchmark_json();
  std::map<std::string, std::string> out;
  for (const auto& m : doc.at(list).as_array()) {
    out[m.at("name").as_string()] =
        m.at("unit").as_string() + " " + m.at("better").as_string();
  }
  return out;
}

std::map<std::string, std::string> defined(const std::vector<MetricDef>& defs) {
  std::map<std::string, std::string> out;
  for (const auto& d : defs) {
    out[d.name] = std::string(d.unit) + (d.higher_is_better ? " higher" : " lower");
  }
  return out;
}

/// name -> unit of `list`, as declared in BENCHMARK.json.
std::map<std::string, std::string> declared_units(const char* list) {
  std::map<std::string, std::string> out;
  for (const auto& [name, unit_better] : declared(list)) {
    out[name] = unit_better.substr(0, unit_better.find(' '));
  }
  return out;
}

/// name -> unit of the metrics one run of `workload` emits.
std::map<std::string, std::string> emitted(const std::string& workload, bool trace) {
  RunOptions options;
  options.workload = workload;
  options.trace = trace;
  options.workdir = "test-work/names-" + workload;
  options.seconds = 0.0;  // one pass, or one untraced/traced pair
  const util::JsonValue doc = util::parse_json(run_workload(options));
  std::filesystem::remove_all(options.workdir);
  EXPECT_TRUE(doc.at("correct").as_bool());
  std::map<std::string, std::string> out;
  for (const auto& [name, m] : doc.at("metrics").as_object()) {
    out[name] = m.at("unit").as_string();
  }
  return out;
}

TEST(MetricNames, DefinitionsMatchBenchmarkJson) {
  EXPECT_EQ(defined(end_to_end_metrics()), declared("end_to_end"));
  EXPECT_EQ(defined(per_layer_metrics()), declared("per_layer"));

  const util::JsonValue doc = benchmark_json();
  std::vector<std::string> names;
  for (const auto& w : doc.at("workloads").as_array()) {
    names.push_back(w.at("name").as_string());
  }
  std::vector<std::string> harness_names;
  for (const auto& spec : workloads()) harness_names.push_back(spec.name);
  EXPECT_EQ(harness_names, names);

  const std::regex allowed("[A-Za-z0-9_.-]+");
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const auto& d : *defs) EXPECT_TRUE(std::regex_match(d.name, allowed)) << d.name;
  }
}

TEST(MetricNames, RunsEmitExactlyTheDeclaredSets) {
  EXPECT_EQ(emitted("paper-tables", false), declared_units("end_to_end"));
  EXPECT_EQ(emitted("paper-tables", true), declared_units("per_layer"));
}

}  // namespace
}  // namespace rooftune::suite

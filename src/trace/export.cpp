#include "trace/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/stop_condition.hpp"
#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/strings.hpp"

namespace rooftune::trace {

namespace {

std::string fmt17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_config(util::JsonWriter& w, const core::Configuration& config) {
  w.begin_object();
  for (const auto& p : config.parameters()) {
    w.key(p.name).value(static_cast<long long>(p.value));
  }
  w.end_object();
}

std::string validated_stop(const util::JsonValue& v, const char* where) {
  const std::string_view text = v.as_string();
  if (!core::stop_reason_from_string(text).has_value()) {
    v.fail("unknown stop reason '" + std::string(text) + "' in " + where);
  }
  return std::string(text);
}

/// Rebuild `config` with its parameters in search-space range order (the
/// order write_export emits: JSON objects and journal configurations arrive
/// in sorted key order, so without this a parse → re-export cycle would not
/// be byte-identical) and require it to be a point of the space.  Throws
/// std::invalid_argument naming a missing or extra parameter, a value
/// outside its range, or the constraint it violates.
core::Configuration space_point(const core::Configuration& config,
                                const core::SearchSpace& space) {
  (void)space.index_of(config);
  if (config.size() != space.ranges().size()) {
    throw std::invalid_argument("configuration " + config.to_string() +
                                " has parameters outside the space definition");
  }
  std::vector<core::Parameter> params;
  params.reserve(space.ranges().size());
  for (const auto& range : space.ranges()) {
    params.push_back({range.name(), config.at(range.name())});
  }
  core::Configuration point(std::move(params));
  space.require_admissible(point);
  return point;
}

/// space_point over a JSON config object; a refusal names the object's
/// line and column.
core::Configuration space_point(const util::JsonValue& obj,
                                const core::SearchSpace& space) {
  std::vector<core::Parameter> params;
  params.reserve(space.ranges().size());
  for (const auto& [name, value] : obj.as_object()) {
    params.push_back({name, value.as_int()});
  }
  try {
    return space_point(core::Configuration(std::move(params)), space);
  } catch (const std::invalid_argument& e) {
    obj.fail(e.what());
  }
}

/// A recorded configuration as the tuner's own ConfigResult: each
/// invocation's moments hold its recorded mean (Welford over one sample
/// returns that sample exactly) under its recorded stop reason, so
/// ConfigResult::value() re-derives the aggregate bit-identically.
core::ConfigResult rebuild(const ExportConfigResult& recorded) {
  core::ConfigResult result;
  result.config = recorded.config;
  result.invocations.reserve(recorded.invocations.size());
  for (const ExportInvocation& inv : recorded.invocations) {
    core::InvocationResult invocation;
    invocation.moments.add(inv.mean);
    invocation.iterations = inv.iterations;
    invocation.stop_reason = core::stop_reason_from_string(inv.stop).value();
    result.outer_moments.add(inv.mean);
    result.invocations.push_back(std::move(invocation));
  }
  return result;
}

}  // namespace

ExportDocument make_export(
    const core::TuningRun& run, const core::SearchSpace& space,
    const std::string& benchmark, const std::string& metric,
    const core::TunerOptions& options,
    std::optional<telemetry::EnvironmentFingerprint> environment) {
  ExportDocument doc;
  doc.benchmark = benchmark;
  doc.metric = metric;
  doc.environment = std::move(environment);
  doc.space = space;
  doc.technique.strategy = core::to_string(options.strategy);
  doc.technique.order = core::to_string(options.order);
  doc.technique.invocations = options.invocations;
  doc.technique.iterations = options.iterations;
  doc.technique.timeout_s = options.timeout.value;
  doc.technique.confidence = options.confidence;
  doc.technique.tolerance = options.tolerance;
  doc.technique.confidence_stop = options.confidence_stop;
  doc.technique.inner_prune = options.inner_prune;
  doc.technique.outer_prune = options.outer_prune;
  doc.technique.counter_prune = options.counter_prune;
  doc.results.reserve(run.results.size());
  for (const auto& result : run.results) {
    ExportConfigResult r;
    r.config = result.config;
    r.value = result.value();
    r.pruned = result.pruned();
    r.stop = core::to_string(result.outer_stop);
    r.iterations = result.total_iterations;
    r.kernel_s = result.total_kernel_time.value;
    r.setup_s = result.total_setup_time.value;
    r.invocations.reserve(result.invocations.size());
    for (const auto& inv : result.invocations) {
      ExportInvocation e;
      e.mean = inv.mean();
      const double sd = inv.moments.stddev();
      e.stddev = std::isfinite(sd) ? sd : 0.0;
      e.iterations = inv.iterations;
      e.stop = core::to_string(inv.stop_reason);
      e.kernel_s = inv.kernel_time.value;
      e.setup_s = inv.setup_time.value;
      e.wall_s = inv.wall_time.value;
      r.invocations.push_back(std::move(e));
    }
    doc.results.push_back(std::move(r));
  }
  doc.best_index = run.best_index;
  return doc;
}

ExportDocument export_from_journal(const Journal& journal,
                                   core::SearchSpace space) {
  ExportDocument doc;
  doc.benchmark = journal.header.benchmark;
  doc.metric = journal.header.metric;
  doc.technique.strategy = journal.header.strategy;
  doc.environment = journal.provenance;
  doc.space = std::move(space);

  // Invocation records grouped per config ordinal; a ConfigDone record
  // closes the group.  Records arrive in (epoch, ordinal, invocation, rank)
  // order, so within one ordinal invocations are already ascending — but
  // interleaving strategies (racing) spread one config across epochs, so
  // membership is keyed by ordinal, not position.
  std::map<std::uint64_t, std::vector<const JournalRecord*>> invocations;
  core::TuningRun rescored;
  for (const JournalRecord& e : journal.records) {
    if (e.kind == core::TraceEvent::Kind::Invocation) {
      invocations[e.config_ordinal].push_back(&e);
    } else if (e.kind == core::TraceEvent::Kind::ConfigDone) {
      ExportConfigResult r;
      try {
        r.config = space_point(journal.config(e), doc.space);
      } catch (const std::invalid_argument& error) {
        throw std::runtime_error("export: journal configuration outside the search space: " +
                                 std::string(error.what()));
      }
      r.pruned = e.pruned;
      r.stop = core::to_string(e.reason);
      r.iterations = e.iterations;
      r.kernel_s = e.kernel_s;
      r.setup_s = e.setup_s;
      const auto group = invocations.find(e.config_ordinal);
      if (group == invocations.end() || group->second.empty()) {
        throw std::runtime_error(
            "export: journal has a config-done record with no invocation "
            "records (ordinal " +
            std::to_string(e.config_ordinal) + ")");
      }
      for (const JournalRecord* inv : group->second) {
        ExportInvocation x;
        x.mean = inv->mean;
        x.stddev = inv->stddev;
        x.iterations = inv->iterations;
        x.stop = core::to_string(inv->reason);
        x.kernel_s = inv->kernel_s;
        x.setup_s = inv->setup_s;
        x.wall_s = inv->wall_s;
        r.invocations.push_back(std::move(x));
      }
      invocations.erase(group);
      // The journal rounds doubles to 12 significant digits, so the
      // aggregate is recomputed from the stored invocation means — keeping
      // the document internally consistent (bit-identical replay against
      // itself).  The recorded value bounds the rounding drift.
      core::ConfigResult result = rebuild(r);
      r.value = result.value();
      const double tolerance = 1e-6 * std::max(1.0, std::fabs(e.value));
      if (std::fabs(r.value - e.value) > tolerance) {
        throw std::runtime_error(
            "export: recomputed value " + fmt17(r.value) + " for " +
            r.config.to_string() + " disagrees with the journal's " +
            fmt17(e.value) + " beyond rounding error");
      }
      rescored.add(std::move(result));
      doc.results.push_back(std::move(r));
    }
  }
  doc.best_index = rescored.best_index;
  return doc;
}

std::string write_export(const ExportDocument& doc) {
  util::JsonWriter w;
  w.begin_object();
  w.key("format").value("rooftune-export");
  w.key("version").value(doc.version);
  w.key("benchmark").value(doc.benchmark);
  w.key("metric").value(doc.metric);

  w.key("technique").begin_object();
  w.key("strategy").value(doc.technique.strategy);
  if (doc.technique.order) w.key("order").value(*doc.technique.order);
  if (doc.technique.invocations) {
    w.key("invocations").value(*doc.technique.invocations);
  }
  if (doc.technique.iterations) {
    w.key("iterations").value(*doc.technique.iterations);
  }
  if (doc.technique.timeout_s) {
    w.key("timeout_s").value_exact(*doc.technique.timeout_s);
  }
  if (doc.technique.confidence) {
    w.key("confidence").value_exact(*doc.technique.confidence);
  }
  if (doc.technique.tolerance) {
    w.key("tolerance").value_exact(*doc.technique.tolerance);
  }
  if (doc.technique.confidence_stop) {
    w.key("confidence_stop").value(*doc.technique.confidence_stop);
  }
  if (doc.technique.inner_prune) {
    w.key("inner_prune").value(*doc.technique.inner_prune);
  }
  if (doc.technique.outer_prune) {
    w.key("outer_prune").value(*doc.technique.outer_prune);
  }
  if (doc.technique.counter_prune) {
    w.key("counter_prune").value(*doc.technique.counter_prune);
  }
  w.end_object();

  w.key("environment");
  if (doc.environment.has_value()) {
    // Same keys as the journal's provenance record (docs/observability.md),
    // minus the record framing.
    w.begin_object();
    doc.environment->write_fields(w);
    w.end_object();
  } else {
    w.null();
  }

  w.key("space").raw_value(doc.space.to_json());

  w.key("results").begin_array();
  for (const auto& r : doc.results) {
    w.begin_object();
    w.key("config");
    write_config(w, r.config);
    w.key("value").value_exact(r.value);
    w.key("pruned").value(r.pruned);
    w.key("stop").value(r.stop);
    w.key("iterations").value(r.iterations);
    w.key("kernel_s").value_exact(r.kernel_s);
    w.key("setup_s").value_exact(r.setup_s);
    w.key("invocations").begin_array();
    for (const auto& inv : r.invocations) {
      w.begin_object();
      w.key("mean").value_exact(inv.mean);
      w.key("stddev").value_exact(inv.stddev);
      w.key("iterations").value(inv.iterations);
      w.key("stop").value(inv.stop);
      w.key("kernel_s").value_exact(inv.kernel_s);
      w.key("setup_s").value_exact(inv.setup_s);
      w.key("wall_s").value_exact(inv.wall_s);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();

  w.key("best");
  if (doc.best_index.has_value()) {
    const ExportConfigResult& best = doc.results.at(*doc.best_index);
    w.begin_object();
    w.key("index").value(static_cast<unsigned long long>(*doc.best_index));
    w.key("config");
    write_config(w, best.config);
    w.key("value").value_exact(best.value);
    w.end_object();
  } else {
    w.null();
  }
  w.end_object();
  return std::move(w).str();
}

namespace {

ExportDocument read_export(const util::JsonValue& root) {
  if (!root.has("format") || root.at("format").as_string() != "rooftune-export") {
    throw std::runtime_error(
        "export: not a rooftune export document (missing "
        "\"format\":\"rooftune-export\")");
  }
  const std::int64_t version = root.at("version").as_int();
  if (version > kExportSchemaVersion) {
    throw std::runtime_error(
        "export: schema version " + std::to_string(version) +
        " is newer than the newest this build reads (" +
        std::to_string(kExportSchemaVersion) +
        ") — re-export with a matching rooftune or upgrade this one");
  }
  if (version < 1) {
    throw std::runtime_error("export: invalid schema version " +
                             std::to_string(version));
  }

  ExportDocument doc;
  doc.version = static_cast<int>(version);
  doc.benchmark = root.at("benchmark").as_string();
  doc.metric = root.at("metric").as_string();

  const util::JsonValue technique = root.at("technique");
  doc.technique.strategy = technique.at("strategy").as_string();
  if (technique.has("order")) {
    doc.technique.order = technique.at("order").as_string();
  }
  if (technique.has("invocations")) {
    doc.technique.invocations = technique.at("invocations").as_u64();
  }
  if (technique.has("iterations")) {
    doc.technique.iterations = technique.at("iterations").as_u64();
  }
  if (technique.has("timeout_s")) {
    doc.technique.timeout_s = technique.at("timeout_s").as_number();
  }
  if (technique.has("confidence")) {
    doc.technique.confidence = technique.at("confidence").as_number();
  }
  if (technique.has("tolerance")) {
    doc.technique.tolerance = technique.at("tolerance").as_number();
  }
  if (technique.has("confidence_stop")) {
    doc.technique.confidence_stop = technique.at("confidence_stop").as_bool();
  }
  if (technique.has("inner_prune")) {
    doc.technique.inner_prune = technique.at("inner_prune").as_bool();
  }
  if (technique.has("outer_prune")) {
    doc.technique.outer_prune = technique.at("outer_prune").as_bool();
  }
  if (technique.has("counter_prune")) {
    doc.technique.counter_prune = technique.at("counter_prune").as_bool();
  }

  if (root.has("environment") && !root.at("environment").is_null()) {
    doc.environment =
        telemetry::EnvironmentFingerprint::read_fields(root.at("environment"));
  }

  doc.space = core::SearchSpace::from_json(root.at("space"));

  for (const util::JsonValue& rv : root.at("results").as_array()) {
    ExportConfigResult r;
    r.config = space_point(rv.at("config"), doc.space);
    r.value = rv.at("value").as_number();
    r.pruned = rv.at("pruned").as_bool();
    r.stop = validated_stop(rv.at("stop"), "a result record");
    r.iterations = rv.at("iterations").as_u64();
    r.kernel_s = rv.at("kernel_s").as_number();
    r.setup_s = rv.at("setup_s").as_number();
    for (const util::JsonValue& iv : rv.at("invocations").as_array()) {
      ExportInvocation inv;
      inv.mean = iv.at("mean").as_number();
      inv.stddev = iv.at("stddev").as_number();
      inv.iterations = iv.at("iterations").as_u64();
      inv.stop = validated_stop(iv.at("stop"), "an invocation record");
      inv.kernel_s = iv.at("kernel_s").as_number();
      inv.setup_s = iv.at("setup_s").as_number();
      inv.wall_s = iv.at("wall_s").as_number();
      r.invocations.push_back(std::move(inv));
    }
    doc.results.push_back(std::move(r));
  }

  if (root.has("best") && !root.at("best").is_null()) {
    const util::JsonValue best = root.at("best");
    const std::uint64_t index = best.at("index").as_u64();
    if (index >= doc.results.size()) {
      best.at("index").fail("best.index " + std::to_string(index) +
                            " is out of range (" + std::to_string(doc.results.size()) +
                            " results)");
    }
    if (space_point(best.at("config"), doc.space) != doc.results[index].config) {
      best.at("config").fail("best.config does not match results[best.index].config");
    }
    if (best.at("value").as_number() != doc.results[index].value) {
      best.at("value").fail("best.value does not match results[best.index].value");
    }
    doc.best_index = index;
  }
  return doc;
}

}  // namespace

ExportDocument parse_export(const std::string& text) {
  util::JsonDocument parsed;
  util::parse_located<std::runtime_error>(parsed, text, "export: malformed JSON");
  return util::read_located(text, "export: ", [&] { return read_export(parsed.root()); });
}

void write_export_file(const std::string& path, const ExportDocument& doc) {
  std::string text = write_export(doc);
  text += '\n';
  if (!util::write_text_file(path, text)) {
    throw std::runtime_error("export: write to '" + path + "' failed");
  }
}

ExportDocument parse_export_file(const std::string& path) {
  const auto text = util::read_text_file(path);
  if (!text) throw std::runtime_error("export: cannot open '" + path + "'");
  return parse_export(*text);
}

ReplayOutcome replay_export(const ExportDocument& doc) {
  ReplayOutcome outcome;
  core::TuningRun run;
  std::vector<std::size_t> recorded_index;  // of each run.results entry
  for (std::size_t i = 0; i < doc.results.size(); ++i) {
    const ExportConfigResult& r = doc.results[i];
    const auto zero = std::find_if(r.invocations.begin(), r.invocations.end(),
                                   [](const ExportInvocation& inv) { return inv.iterations == 0; });
    if (zero != r.invocations.end()) {
      ++outcome.value_mismatches;
      if (outcome.first_mismatch.empty()) {
        outcome.first_mismatch = r.config.to_string() + " invocation " +
                                 std::to_string(zero - r.invocations.begin()) +
                                 " records zero iterations";
      }
      continue;
    }
    core::ConfigResult result = rebuild(r);
    const double value = result.value();
    if (value != r.value) {
      ++outcome.value_mismatches;
      if (outcome.first_mismatch.empty()) {
        outcome.first_mismatch = r.config.to_string() + ": replayed " +
                                 fmt17(value) + " != recorded " +
                                 fmt17(r.value);
      }
    }
    run.add(std::move(result));
    recorded_index.push_back(i);
  }

  outcome.configs = run.results.size();
  std::optional<std::size_t> best;
  if (run.best_index.has_value()) {
    best = recorded_index[*run.best_index];
    outcome.replayed_best_value = run.best_value();
  }
  outcome.replayed_best_index = best;
  outcome.best_index_matches = best == doc.best_index;
  outcome.best_value_matches =
      best.has_value() && doc.best_index.has_value()
          ? outcome.replayed_best_value == doc.results[*doc.best_index].value
          : outcome.best_index_matches;
  if (outcome.first_mismatch.empty() && !outcome.best_index_matches) {
    outcome.first_mismatch =
        "replayed optimum index " +
        (best ? std::to_string(*best) : std::string("none")) +
        " != recorded " +
        (doc.best_index ? std::to_string(*doc.best_index)
                        : std::string("none"));
  }
  return outcome;
}

}  // namespace rooftune::trace

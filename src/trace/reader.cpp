#include "trace/reader.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/journal.hpp"
#include "util/json_parse.hpp"
#include "util/strings.hpp"

namespace rooftune::trace {

namespace {

// Helpers throw bare messages; the per-line catch in read_journal adds the
// line number and a prefix of the offending line, so every parse error —
// including missing-key / wrong-type throws from JsonValue accessors — tells
// the user where to look in the journal.
[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

std::string line_prefix(std::string_view line) {
  constexpr std::size_t kMaxShown = 60;
  if (line.size() <= kMaxShown) return std::string(line);
  return std::string(line.substr(0, kMaxShown)) + "...";
}

[[noreturn]] void fail_line(std::size_t line_number, std::string_view line,
                            const std::string& what) {
  throw std::runtime_error("trace journal line " + std::to_string(line_number) +
                           ": " + what + "\n  offending line: " +
                           line_prefix(line));
}

core::Configuration read_config(const util::JsonValue& doc) {
  if (!doc.has("cfg")) return {};
  std::vector<core::Parameter> params;
  for (const auto& [name, value] : doc.at("cfg").as_object()) {
    params.push_back({name, value.as_int()});
  }
  return core::Configuration(std::move(params));
}

core::StopReason read_reason(const util::JsonValue& doc) {
  const std::string_view text = doc.at("reason").as_string();
  const auto reason = core::stop_reason_from_string(text);
  if (!reason.has_value()) fail("unknown stop reason '" + std::string(text) + "'");
  return *reason;
}

void read_ci(const util::JsonValue& doc, const char* key, bool& have,
             double& lower, double& upper) {
  if (!doc.has(key) || doc.at(key).is_null()) return;
  const util::JsonValue ci = doc.at(key);
  have = true;
  lower = ci.at(0).as_number();
  upper = ci.at(1).as_number();
}

}  // namespace

Journal read_journal(const std::string& text) {
  Journal journal;
  bool saw_header = false;

  // One document reused for every line: after the first few lines a line
  // costs no allocation beyond its record's own fields.
  util::JsonDocument parsed;
  const std::string_view all(text);
  journal.records.reserve(
      static_cast<std::size_t>(std::count(all.begin(), all.end(), '\n')));
  std::size_t line_number = 0;
  for (std::size_t begin = 0; begin < all.size();) {
    const std::size_t newline = all.find('\n', begin);
    const std::size_t end = newline == std::string_view::npos ? all.size() : newline;
    const std::string_view line = all.substr(begin, end - begin);
    begin = end + 1;
    ++line_number;
    if (line.empty()) continue;
    try {
    parsed.parse(line);
    const util::JsonValue doc = parsed.root();
    const std::string_view tag = doc.at("t").as_string();

    if (tag == "provenance") {
      if (saw_header || !journal.records.empty()) {
        fail("provenance record must precede every other line");
      }
      journal.provenance = telemetry::parse_provenance(doc);
      continue;
    }
    if (tag == "run") {
      const std::int64_t version = doc.at("v").as_int();
      if (version > kJournalSchemaVersion) {
        fail("journal schema version " + std::to_string(version) +
             " is newer than the newest this build reads (" +
             std::to_string(kJournalSchemaVersion) +
             ") — upgrade rooftune to read this trace");
      }
      journal.header.version = static_cast<int>(version);
      journal.header.benchmark = doc.at("benchmark").as_string();
      journal.header.metric = doc.at("metric").as_string();
      journal.header.strategy = doc.at("strategy").as_string();
      if (doc.has("perf_degraded")) {
        journal.header.perf_degraded = doc.at("perf_degraded").as_string();
      }
      saw_header = true;
      continue;
    }
    if (tag == "scheduler") {
      journal.scheduler = core::SchedulerStats::read_fields(doc);
      continue;
    }
    if (tag == "summary") {
      JournalSummary summary;
      summary.configs = doc.at("configs").as_u64();
      summary.pruned = doc.at("pruned").as_u64();
      summary.invocations = doc.at("invocations").as_u64();
      summary.iterations = doc.at("iterations").as_u64();
      if (!doc.at("best").is_null()) summary.best = doc.at("best").as_number();
      journal.summary = summary;
      continue;
    }

    JournalRecord record;
    core::TraceEvent& e = record.event;
    e.epoch = doc.at("epoch").as_u64();
    e.config_ordinal = doc.at("ord").as_u64();
    e.invocation = doc.at("inv").as_u64();
    e.rank = doc.at("rank").as_i32();
    e.config = read_config(doc);

    using Kind = core::TraceEvent::Kind;
    if (tag == "incumbent") {
      e.kind = Kind::IncumbentUpdate;
      e.value = doc.at("value").as_number();
    } else if (tag == "stop") {
      e.kind = Kind::StopDecision;
      e.outer_level = doc.at("level").as_string() == "invocation";
      e.reason = read_reason(doc);
      e.count = doc.at("count").as_u64();
      e.mean = doc.at("mean").as_number();
      read_ci(doc, "ci", e.have_ci, e.ci_lower, e.ci_upper);
      if (doc.has("kernel_s")) e.accumulated_s = doc.at("kernel_s").as_number();
      if (!doc.at("incumbent").is_null()) {
        e.incumbent = doc.at("incumbent").as_number();
      }
    } else if (tag == "invocation") {
      e.kind = Kind::Invocation;
      e.reason = read_reason(doc);
      e.iterations = doc.at("iterations").as_u64();
      e.kernel_s = doc.at("kernel_s").as_number();
      e.setup_s = doc.at("setup_s").as_number();
      e.wall_s = doc.at("wall_s").as_number();
      e.deterministic_timing = doc.at("det").as_bool();
      e.mean = doc.at("mean").as_number();
      e.stddev = doc.at("stddev").as_number();
      e.trend_rising = doc.at("rising").as_bool();
      if (doc.has("flops")) e.flops = doc.at("flops").as_number();
      if (doc.has("bytes")) e.bytes = doc.at("bytes").as_number();
      if (doc.has("perf")) {
        const auto& perf = doc.at("perf");
        PerfSample sample;
        sample.cycles = perf.at("cycles").as_u64();
        sample.instructions = perf.at("instructions").as_u64();
        sample.llc_misses = perf.at("llc_misses").as_u64();
        if (perf.has("scaled")) {
          sample.scaled = perf.at("scaled").as_bool();
          if (perf.has("time_enabled_ns")) {
            sample.time_enabled_ns = perf.at("time_enabled_ns").as_u64();
          }
          if (perf.has("time_running_ns")) {
            sample.time_running_ns = perf.at("time_running_ns").as_u64();
          }
        }
        sample.valid = true;
        record.perf = sample;
      }
      if (doc.has("arena")) {
        const auto& arena = doc.at("arena");
        util::ArenaStats stats;
        stats.leases = arena.at("leases").as_u64();
        stats.slab_hits = arena.at("slab_hits").as_u64();
        stats.slab_misses = arena.at("slab_misses").as_u64();
        stats.allocations = arena.at("allocations").as_u64();
        stats.bytes_leased = arena.at("bytes_leased").as_u64();
        stats.bytes_reserved = arena.at("bytes_reserved").as_u64();
        stats.pages_touched = arena.at("pages_touched").as_u64();
        e.arena_delta = stats;
      }
    } else if (tag == "config-done") {
      e.kind = Kind::ConfigDone;
      e.reason = read_reason(doc);
      e.value = doc.at("value").as_number();
      e.pruned = doc.at("pruned").as_bool();
      e.iterations = doc.at("iterations").as_u64();
      e.kernel_s = doc.at("kernel_s").as_number();
      e.setup_s = doc.at("setup_s").as_number();
    } else if (tag == "elimination") {
      e.kind = Kind::Elimination;
      e.basis = doc.at("basis").as_string();
      e.count = doc.at("count").as_u64();
      e.mean = doc.at("mean").as_number();
      read_ci(doc, "ci", e.have_ci, e.ci_lower, e.ci_upper);
      if (doc.has("leader")) {
        e.leader_ordinal = doc.at("leader").as_u64();
        const util::JsonValue ci = doc.at("leader_ci");
        e.leader_ci_lower = ci.at(0).as_number();
        e.leader_ci_upper = ci.at(1).as_number();
      }
    } else if (tag == "round") {
      e.kind = Kind::Round;
      e.survivors_before = doc.at("before").as_u64();
      e.survivors_after = doc.at("after").as_u64();
      e.eliminated = doc.at("eliminated").as_u64();
      e.finished = doc.at("finished").as_u64();
    } else if (tag == "resume") {
      e.kind = Kind::Resume;
      e.restored_configs = doc.at("restored").as_u64();
    } else if (tag == "surrogate-fit") {
      e.kind = Kind::SurrogateFit;
      if (e.config.parameters().empty()) {
        e.count = doc.at("samples").as_u64();
        e.r2 = doc.at("r2").as_number();
        e.model_log_scale = doc.at("scale").as_string() == "log";
      } else {
        if (!doc.at("predicted").is_null()) {
          e.predicted = doc.at("predicted").as_number();
        }
        e.value = doc.at("measured").as_number();
      }
    } else if (tag == "counter-prune") {
      e.kind = Kind::CounterPrune;
      e.basis = doc.at("class").as_string();
      e.bound = doc.at("bound").as_number();
      e.margin = doc.at("margin").as_number();
      if (!doc.at("oi").is_null()) e.oi = doc.at("oi").as_number();
      e.widened = doc.at("widened").as_bool();
      if (!doc.at("incumbent").is_null()) {
        e.incumbent = doc.at("incumbent").as_number();
      }
      e.count = doc.at("count").as_u64();
      e.mean = doc.at("mean").as_number();
    } else if (tag == "prune-batch") {
      e.kind = Kind::PruneBatch;
      if (e.config.parameters().empty()) {
        e.scanned = doc.at("scanned").as_u64();
        e.kept = doc.at("kept").as_u64();
      } else if (!doc.at("predicted").is_null()) {
        e.predicted = doc.at("predicted").as_number();
      }
    } else {
      fail("unknown record type '" + std::string(tag) + "'");
    }
    journal.records.push_back(std::move(record));
    } catch (const std::exception& e) {
      fail_line(line_number, line, e.what());
    }
  }

  if (!saw_header) {
    throw std::runtime_error("trace journal: missing 'run' header line");
  }
  return journal;
}

Journal read_journal_file(const std::string& path) {
  const auto text = util::read_text_file(path);
  if (!text) throw std::runtime_error("trace journal: cannot read " + path);
  return read_journal(*text);
}

}  // namespace rooftune::trace

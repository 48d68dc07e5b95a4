#include "trace/reader.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <unordered_map>

#include "trace/journal.hpp"
#include "util/json_parse.hpp"
#include "util/strings.hpp"

namespace rooftune::trace {

namespace {

/// The smallest chunk worth a thread of its own.
constexpr std::size_t kMinChunkBytes = 256 * 1024;

constexpr std::uint32_t kNone = JournalRecord::kNone;

constexpr const char* kProvenanceFirst = "provenance record must precede every other line";

// Helpers throw bare messages; the per-line catch adds the line number and
// a prefix of the offending line, so every parse error — including
// missing-key / wrong-type throws from JsonValue accessors — tells the user
// where to look in the journal.
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

core::Configuration read_config(const util::JsonValue& cfg) {
  std::vector<core::Parameter> params;
  for (const auto& [name, value] : cfg.as_object()) {
    params.push_back({name, value.as_int()});
  }
  return core::Configuration(std::move(params));
}

/// Whether `cfg` reads as `config`, checked member by member without
/// building a Configuration.  Throws where read_config would.
bool reads_as(const util::JsonValue& cfg, const core::Configuration& config) {
  const auto members = cfg.as_object();
  const auto& params = config.parameters();
  if (members.size() != params.size()) return false;
  for (std::size_t i = 0; i < params.size(); ++i) {
    const auto member = members[i];
    if (member.key != params[i].name || member.value.as_int() != params[i].value) {
      return false;
    }
  }
  return true;
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

void read_optional(const util::JsonValue& doc, const char* key,
                   std::optional<double>& out) {
  if (!doc.at(key).is_null()) out = doc.at(key).as_number();
}

/// Distinct configurations keyed by ordinal: the entry of an (ordinal,
/// configuration) pair seen before, or a new one.
class ConfigTable {
 public:
  std::vector<core::Configuration> configs;
  std::vector<std::uint64_t> ordinals;  ///< per entry

  /// The entry at `ordinal` for which same(entry) holds; make() builds the
  /// configuration when there is none.
  template <class Same, class Make>
  std::uint32_t intern(std::uint64_t ordinal, Same&& same, Make&& make) {
    if (last_ != kNone && ordinals[last_] == ordinal && same(configs[last_])) {
      return last_;
    }
    const auto newest = newest_.try_emplace(ordinal, kNone).first;
    for (std::uint32_t entry = newest->second; entry != kNone; entry = older_[entry]) {
      if (same(configs[entry])) return last_ = entry;
    }
    configs.push_back(make());
    ordinals.push_back(ordinal);
    older_.push_back(newest->second);
    newest->second = static_cast<std::uint32_t>(configs.size() - 1);
    return last_ = newest->second;
  }

 private:
  std::unordered_map<std::uint64_t, std::uint32_t> newest_;  ///< ordinal → entry
  std::vector<std::uint32_t> older_;  ///< entry → previous entry of its ordinal
  std::uint32_t last_ = kNone;        ///< consecutive lines share an ordinal
};

class LabelTable {
 public:
  std::vector<std::string> labels;

  std::uint32_t intern(std::string_view label) {
    const auto it = index_.find(label);
    if (it != index_.end()) return it->second;
    labels.emplace_back(label);
    const auto entry = static_cast<std::uint32_t>(labels.size() - 1);
    index_.emplace(labels.back(), entry);
    return entry;
  }

 private:
  std::map<std::string, std::uint32_t, std::less<>> index_;
};

struct LineError {
  std::size_t line = 0;  ///< chunk-local until the merge
  std::string what;
  std::string_view text;
};

/// What one chunk of lines read to: its records with chunk-local table
/// indices, the last of each singleton line, and the first failing line.
struct Chunk {
  std::string_view text;
  std::size_t lines = 0;
  std::vector<JournalRecord> records;
  ConfigTable configs;
  LabelTable labels;
  std::vector<PerfSample> perf_samples;
  std::vector<util::ArenaStats> arena_deltas;
  std::optional<JournalHeader> header;
  std::optional<telemetry::EnvironmentFingerprint> provenance;
  std::optional<JournalSummary> summary;
  std::optional<core::SchedulerStats> scheduler;
  /// A run line or a record was read, so a later provenance line fails.
  bool header_or_record = false;
  /// The chunk's first provenance line, when no run line or record of the
  /// chunk precedes it: it fails only if an earlier chunk holds one.
  std::optional<LineError> first_provenance;
  std::optional<LineError> error;
  /// An error outside any line (no memory for the chunk's records).
  std::exception_ptr failure;
};

/// Reads the lines of chunks; one per thread, reusing its JSON document.
class ChunkReader {
 public:
  void read(Chunk& chunk) {
    const std::string_view all = chunk.text;
    chunk.records.reserve(
        static_cast<std::size_t>(std::count(all.begin(), all.end(), '\n')) + 1);
    for (std::size_t begin = 0; begin < all.size();) {
      const std::size_t newline = all.find('\n', begin);
      const std::size_t end = newline == std::string_view::npos ? all.size() : newline;
      const std::string_view line = all.substr(begin, end - begin);
      begin = end + 1;
      ++chunk.lines;
      if (line.empty()) continue;
      try {
        read_line(chunk, line);
      } catch (const std::exception& e) {
        chunk.error = LineError{chunk.lines, e.what(), line};
        return;
      }
    }
  }

 private:
  void read_line(Chunk& chunk, std::string_view line);
  void read_record(Chunk& chunk, const util::JsonValue& doc, std::string_view tag);

  util::JsonDocument parsed_;
};

void ChunkReader::read_line(Chunk& chunk, std::string_view line) {
  parsed_.parse(line);
  const util::JsonValue doc = parsed_.root();
  const std::string_view tag = doc.at("t").as_string();

  if (tag == "provenance") {
    if (chunk.header_or_record) fail(kProvenanceFirst);
    if (!chunk.first_provenance.has_value()) {
      chunk.first_provenance = LineError{chunk.lines, kProvenanceFirst, line};
    }
    chunk.provenance = telemetry::parse_provenance(doc);
    return;
  }
  if (tag == "run") {
    const std::int64_t version = doc.at("v").as_int();
    if (version > kJournalSchemaVersion) {
      fail("journal schema version " + std::to_string(version) +
           " is newer than the newest this build reads (" +
           std::to_string(kJournalSchemaVersion) +
           ") — upgrade rooftune to read this trace");
    }
    JournalHeader header;
    header.version = static_cast<int>(version);
    header.benchmark = doc.at("benchmark").as_string();
    header.metric = doc.at("metric").as_string();
    header.strategy = doc.at("strategy").as_string();
    if (doc.has("perf_degraded")) {
      header.perf_degraded = doc.at("perf_degraded").as_string();
    }
    chunk.header = std::move(header);
    chunk.header_or_record = true;
    return;
  }
  if (tag == "scheduler") {
    chunk.scheduler = core::SchedulerStats::read_fields(doc);
    return;
  }
  if (tag == "summary") {
    JournalSummary summary;
    summary.configs = doc.at("configs").as_u64();
    summary.pruned = doc.at("pruned").as_u64();
    summary.invocations = doc.at("invocations").as_u64();
    summary.iterations = doc.at("iterations").as_u64();
    if (!doc.at("best").is_null()) summary.best = doc.at("best").as_number();
    chunk.summary = summary;
    return;
  }
  read_record(chunk, doc, tag);
  chunk.header_or_record = true;
}

void ChunkReader::read_record(Chunk& chunk, const util::JsonValue& doc,
                              std::string_view tag) {
  JournalRecord e;
  e.epoch = doc.at("epoch").as_u64();
  e.config_ordinal = doc.at("ord").as_u64();
  e.invocation = doc.at("inv").as_u64();
  e.rank = doc.at("rank").as_i32();
  if (doc.has("cfg")) {
    const util::JsonValue cfg = doc.at("cfg");
    if (!cfg.as_object().empty()) {
      e.config = chunk.configs.intern(
          e.config_ordinal,
          [&](const core::Configuration& config) { return reads_as(cfg, config); },
          [&] { return read_config(cfg); });
    }
  }

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
    if (doc.has("kernel_s")) e.kernel_s = doc.at("kernel_s").as_number();
    read_optional(doc, "incumbent", e.incumbent);
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
      e.perf = static_cast<std::uint32_t>(chunk.perf_samples.size());
      chunk.perf_samples.push_back(sample);
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
      e.arena = static_cast<std::uint32_t>(chunk.arena_deltas.size());
      chunk.arena_deltas.push_back(stats);
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
    e.label = chunk.labels.intern(doc.at("basis").as_string());
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
    if (e.config == kNone) {
      e.count = doc.at("samples").as_u64();
      e.r2 = doc.at("r2").as_number();
      e.model_log_scale = doc.at("scale").as_string() == "log";
    } else {
      read_optional(doc, "predicted", e.predicted);
      e.value = doc.at("measured").as_number();
    }
  } else if (tag == "counter-prune") {
    e.kind = Kind::CounterPrune;
    e.label = chunk.labels.intern(doc.at("class").as_string());
    e.bound = doc.at("bound").as_number();
    e.margin = doc.at("margin").as_number();
    read_optional(doc, "oi", e.oi);
    e.widened = doc.at("widened").as_bool();
    read_optional(doc, "incumbent", e.incumbent);
    e.count = doc.at("count").as_u64();
    e.mean = doc.at("mean").as_number();
  } else if (tag == "prune-batch") {
    e.kind = Kind::PruneBatch;
    if (e.config == kNone) {
      e.scanned = doc.at("scanned").as_u64();
      e.kept = doc.at("kept").as_u64();
    } else {
      read_optional(doc, "predicted", e.predicted);
    }
  } else {
    fail("unknown record type '" + std::string(tag) + "'");
  }
  chunk.records.push_back(e);
}

/// `text` cut into `count` runs of whole lines (trailing ones may be empty).
std::vector<Chunk> cut(std::string_view text, std::size_t count) {
  std::vector<Chunk> chunks(count);
  std::size_t begin = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::size_t end = text.size();
    if (i + 1 < count) {
      const std::size_t target = std::max(begin, text.size() / count * (i + 1));
      const std::size_t newline = text.find('\n', target);
      if (newline != std::string_view::npos) end = newline + 1;
    }
    chunks[i].text = text.substr(begin, end - begin);
    begin = end;
  }
  return chunks;
}

/// Read every chunk, on the calling thread and up to threads - 1 others.
void read_all(std::vector<Chunk>& chunks, std::size_t threads) {
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    ChunkReader reader;
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= chunks.size()) return;
      try {
        reader.read(chunks[i]);
      } catch (...) {
        chunks[i].failure = std::current_exception();
      }
    }
  };
  std::vector<std::jthread> workers;  // joined when they go out of scope
  workers.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) {
    try {
      workers.emplace_back(work);
    } catch (const std::system_error&) {
      break;  // the threads already started, and this one, take the rest
    }
  }
  work();
}

/// Join the chunks in line order: the first failing line throws; tables
/// merge into the Journal's, and records follow with their indices moved.
Journal merge(std::vector<Chunk>& chunks) {
  Journal journal;
  bool saw_header = false;
  bool header_or_record = false;
  std::size_t lines_before = 0;
  ConfigTable configs;
  LabelTable labels;
  std::size_t total = 0;
  for (const Chunk& chunk : chunks) total += chunk.records.size();

  for (std::size_t c = 0; c < chunks.size(); ++c) {
    Chunk& chunk = chunks[c];
    if (chunk.failure) std::rethrow_exception(chunk.failure);
    const LineError* error = chunk.error ? &*chunk.error : nullptr;
    if (header_or_record && chunk.first_provenance.has_value() &&
        (error == nullptr || chunk.first_provenance->line <= error->line)) {
      error = &*chunk.first_provenance;
    }
    if (error != nullptr) fail_line(lines_before + error->line, error->text, error->what);
    lines_before += chunk.lines;
    header_or_record = header_or_record || chunk.header_or_record;

    if (chunk.provenance) journal.provenance = std::move(chunk.provenance);
    if (chunk.header) {
      journal.header = std::move(*chunk.header);
      saw_header = true;
    }
    if (chunk.summary) journal.summary = chunk.summary;
    if (chunk.scheduler) journal.scheduler = std::move(chunk.scheduler);

    std::vector<std::uint32_t> config_entry(chunk.configs.configs.size());
    for (std::size_t i = 0; i < config_entry.size(); ++i) {
      core::Configuration& config = chunk.configs.configs[i];
      config_entry[i] = configs.intern(
          chunk.configs.ordinals[i],
          [&](const core::Configuration& known) { return known == config; },
          [&] { return std::move(config); });
    }
    std::vector<std::uint32_t> label_entry;
    for (const std::string& label : chunk.labels.labels) {
      label_entry.push_back(labels.intern(label));
    }
    if (c == 0) {
      // The first chunk's entries open the Journal's tables, index for
      // index, so its records move in unchanged.
      journal.records = std::move(chunk.records);
      journal.records.reserve(total);
      journal.perf_samples = std::move(chunk.perf_samples);
      journal.arena_deltas = std::move(chunk.arena_deltas);
      continue;
    }
    const auto perf_base = static_cast<std::uint32_t>(journal.perf_samples.size());
    const auto arena_base = static_cast<std::uint32_t>(journal.arena_deltas.size());
    journal.perf_samples.insert(journal.perf_samples.end(), chunk.perf_samples.begin(),
                                chunk.perf_samples.end());
    journal.arena_deltas.insert(journal.arena_deltas.end(), chunk.arena_deltas.begin(),
                                chunk.arena_deltas.end());
    for (JournalRecord record : chunk.records) {
      if (record.config != kNone) record.config = config_entry[record.config];
      if (record.label != kNone) record.label = label_entry[record.label];
      if (record.perf != kNone) record.perf += perf_base;
      if (record.arena != kNone) record.arena += arena_base;
      journal.records.push_back(record);
    }
    chunk.records = {};  // release each chunk's records as they are copied
  }

  if (!saw_header) {
    throw std::runtime_error("trace journal: missing 'run' header line");
  }
  journal.configs = std::move(configs.configs);
  journal.labels = std::move(labels.labels);
  return journal;
}

Journal read_chunked(std::string_view text, std::size_t chunk_count, std::size_t threads) {
  std::vector<Chunk> chunks = cut(text, chunk_count);
  read_all(chunks, threads);
  return merge(chunks);
}

std::size_t hardware_threads() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

}  // namespace

const core::Configuration& Journal::config(const JournalRecord& record) const {
  static const core::Configuration kEmpty;
  return record.config == kNone ? kEmpty : configs[record.config];
}

std::string_view Journal::label(const JournalRecord& record) const {
  return record.label == kNone ? std::string_view() : std::string_view(labels[record.label]);
}

const PerfSample* Journal::perf(const JournalRecord& record) const {
  return record.perf == kNone ? nullptr : &perf_samples[record.perf];
}

Journal read_journal(std::string_view text) {
  const std::size_t chunks =
      std::clamp<std::size_t>(text.size() / kMinChunkBytes, 1, hardware_threads());
  return read_chunked(text, chunks, chunks);
}

Journal detail::read_journal(std::string_view text, std::size_t chunks) {
  chunks = std::max<std::size_t>(chunks, 1);
  return read_chunked(text, chunks, std::min(chunks, hardware_threads()));
}

Journal read_journal_file(const std::string& path) {
  const auto text = util::read_text_file(path);
  if (!text) throw std::runtime_error("trace journal: cannot read " + path);
  return read_journal(*text);
}

}  // namespace rooftune::trace

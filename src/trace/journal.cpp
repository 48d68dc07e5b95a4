#include "trace/journal.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "util/profiler.hpp"
#include "util/strings.hpp"

namespace rooftune::trace {

namespace {

std::uint64_t next_journal_id() {
  static std::atomic<std::uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

const char* kind_tag(core::TraceEvent::Kind kind) {
  using Kind = core::TraceEvent::Kind;
  switch (kind) {
    case Kind::IncumbentUpdate: return "incumbent";
    case Kind::StopDecision: return "stop";
    case Kind::Invocation: return "invocation";
    case Kind::ConfigDone: return "config-done";
    case Kind::Elimination: return "elimination";
    case Kind::Round: return "round";
    case Kind::Resume: return "resume";
    case Kind::SurrogateFit: return "surrogate-fit";
    case Kind::PruneBatch: return "prune-batch";
    case Kind::CounterPrune: return "counter-prune";
  }
  return "?";
}

void write_sort_key(util::JsonWriter& w, const core::TraceEvent& e) {
  w.key("epoch").value(e.epoch);
  w.key("ord").value(e.config_ordinal);
  w.key("inv").value(e.invocation);
  w.key("rank").value(e.rank);
}

void write_config(util::JsonWriter& w, const core::Configuration& config) {
  if (config.parameters().empty()) return;
  w.key("cfg").begin_object();
  for (const auto& p : config.parameters()) {
    w.key(p.name).value(static_cast<long long>(p.value));
  }
  w.end_object();
}

void write_ci(util::JsonWriter& w, const char* key, bool have, double lower,
              double upper) {
  if (have) {
    w.key(key).begin_array().value(lower).value(upper).end_array();
  } else {
    w.key(key).null();
  }
}

void write_optional(util::JsonWriter& w, const char* key,
                    const std::optional<double>& value) {
  if (value.has_value()) {
    w.key(key).value(*value);
  } else {
    w.key(key).null();
  }
}

/// One event as one JSON object (no line break): the record tag, the sort
/// key, then the fields of its kind.  `perf` is the counter sample sampled
/// over an Invocation's kernel phase (invalid when none was read).
void write_record(util::JsonWriter& w, const core::TraceEvent& e,
                  const PerfSample& perf) {
  using Kind = core::TraceEvent::Kind;
  w.begin_object();
  w.key("t").value(kind_tag(e.kind));
  write_sort_key(w, e);
  switch (e.kind) {
    case Kind::IncumbentUpdate:
      write_config(w, e.config);
      w.key("value").value(e.value);
      break;
    case Kind::StopDecision:
      write_config(w, e.config);
      w.key("level").value(e.outer_level ? "invocation" : "iteration");
      w.key("reason").value(core::to_string(e.reason));
      w.key("count").value(e.count);
      w.key("mean").value(e.mean);
      write_ci(w, "ci", e.have_ci, e.ci_lower, e.ci_upper);
      if (!e.outer_level) w.key("kernel_s").value(e.accumulated_s);
      write_optional(w, "incumbent", e.incumbent);
      break;
    case Kind::Invocation:
      write_config(w, e.config);
      w.key("reason").value(core::to_string(e.reason));
      w.key("iterations").value(e.iterations);
      w.key("kernel_s").value(e.kernel_s);
      w.key("setup_s").value(e.setup_s);
      w.key("wall_s").value(e.wall_s);
      w.key("det").value(e.deterministic_timing);
      w.key("mean").value(e.mean);
      w.key("stddev").value(e.stddev);
      w.key("rising").value(e.trend_rising);
      if (e.flops.has_value()) w.key("flops").value(*e.flops);
      if (e.bytes.has_value()) w.key("bytes").value(*e.bytes);
      if (perf.valid || (e.counters.has_value() && e.counters->valid)) {
        // Sampled counters (attached at kernel_phase_end) win; otherwise
        // the event's own counters — the sim backend's synthetic model —
        // serialize through the same key layout, so the reader and the
        // analyzer's measured-OI column are backend-agnostic.
        const bool sampled = perf.valid;
        const auto cycles = sampled ? perf.cycles : e.counters->cycles;
        const auto instructions =
            sampled ? perf.instructions : e.counters->instructions;
        const auto llc_misses =
            sampled ? perf.llc_misses : e.counters->llc_misses;
        const bool scaled = sampled ? perf.scaled : e.counters->scaled;
        const auto enabled_ns =
            sampled ? perf.time_enabled_ns : e.counters->time_enabled_ns;
        const auto running_ns =
            sampled ? perf.time_running_ns : e.counters->time_running_ns;
        w.key("perf").begin_object();
        w.key("cycles").value(cycles);
        w.key("instructions").value(instructions);
        w.key("llc_misses").value(llc_misses);
        // Counts extrapolated from a partial PMU slice (multiplexing):
        // record the slice so the analyzer can warn and quantify.
        if (scaled) {
          w.key("scaled").value(true);
          w.key("time_enabled_ns").value(enabled_ns);
          w.key("time_running_ns").value(running_ns);
        }
        w.end_object();
      }
      if (e.arena_delta.has_value()) {
        const util::ArenaStats& a = *e.arena_delta;
        w.key("arena").begin_object();
        w.key("leases").value(a.leases);
        w.key("slab_hits").value(a.slab_hits);
        w.key("slab_misses").value(a.slab_misses);
        w.key("allocations").value(a.allocations);
        w.key("bytes_leased").value(a.bytes_leased);
        w.key("bytes_reserved").value(a.bytes_reserved);
        w.key("pages_touched").value(a.pages_touched);
        w.end_object();
      }
      break;
    case Kind::ConfigDone:
      write_config(w, e.config);
      w.key("reason").value(core::to_string(e.reason));
      w.key("value").value(e.value);
      w.key("pruned").value(e.pruned);
      w.key("iterations").value(e.iterations);
      w.key("kernel_s").value(e.kernel_s);
      w.key("setup_s").value(e.setup_s);
      break;
    case Kind::Elimination:
      write_config(w, e.config);
      w.key("basis").value(e.basis);
      w.key("count").value(e.count);
      w.key("mean").value(e.mean);
      write_ci(w, "ci", e.have_ci, e.ci_lower, e.ci_upper);
      if (e.basis != "inner-prune") {
        w.key("leader").value(e.leader_ordinal);
        w.key("leader_ci")
            .begin_array()
            .value(e.leader_ci_lower)
            .value(e.leader_ci_upper)
            .end_array();
      }
      break;
    case Kind::Round:
      w.key("before").value(e.survivors_before);
      w.key("after").value(e.survivors_after);
      w.key("eliminated").value(e.eliminated);
      w.key("finished").value(e.finished);
      break;
    case Kind::Resume:
      w.key("restored").value(e.restored_configs);
      break;
    case Kind::SurrogateFit:
      // Two shapes: the phase summary (no cfg) carries the model quality;
      // per-seed records carry predicted vs measured for one config.
      if (e.config.parameters().empty()) {
        w.key("samples").value(e.count);
        w.key("r2").value(e.r2);
        w.key("scale").value(e.model_log_scale ? "log" : "raw");
      } else {
        write_config(w, e.config);
        write_optional(w, "predicted", e.predicted);
        w.key("measured").value(e.value);
      }
      break;
    case Kind::CounterPrune:
      write_config(w, e.config);
      w.key("class").value(e.basis);
      w.key("bound").value(e.bound);
      w.key("margin").value(e.margin);
      write_optional(w, "oi", e.oi);
      w.key("widened").value(e.widened);
      write_optional(w, "incumbent", e.incumbent);
      w.key("count").value(e.count);
      w.key("mean").value(e.mean);
      break;
    case Kind::PruneBatch:
      // Summary (no cfg): scan statistics; per-config records: the kept
      // candidates with their predicted values.
      if (e.config.parameters().empty()) {
        w.key("scanned").value(e.scanned);
        w.key("kept").value(e.kept);
        w.key("pruned").value(e.scanned - e.kept);
      } else {
        write_config(w, e.config);
        write_optional(w, "predicted", e.predicted);
      }
      break;
  }
  w.end_object();
}

}  // namespace

TraceJournal::TraceJournal(JournalOptions options)
    : options_(std::move(options)), id_(next_journal_id()) {}

TraceJournal::~TraceJournal() = default;

void TraceJournal::begin_run(RunHeader header) {
  const std::scoped_lock lock(mutex_);
  header_ = std::move(header);
}

void TraceJournal::finish_run(RunSummary summary) {
  const std::scoped_lock lock(mutex_);
  summary_ = summary;
}

std::unordered_map<std::uint64_t, TraceJournal::WorkerBuffer*>&
TraceJournal::thread_registry() {
  // Keyed by journal id, not address: ids are never reused, so a stale
  // entry from a destroyed journal can never alias a live one.  Entries
  // for dead journals linger until the thread exits — a few pointers.
  thread_local std::unordered_map<std::uint64_t, WorkerBuffer*> registry;
  return registry;
}

TraceJournal::WorkerBuffer& TraceJournal::local_buffer() {
  auto& registry = thread_registry();
  if (const auto it = registry.find(id_); it != registry.end()) {
    return *it->second;
  }
  const std::scoped_lock lock(mutex_);
  buffers_.push_back(std::make_unique<WorkerBuffer>());
  WorkerBuffer& buffer = *buffers_.back();
  if (options_.perf_counters) {
    buffer.sampler = std::make_unique<PerfCounterSampler>();
    if (!buffer.sampler->available() && degraded_reason_.empty()) {
      // Run-level aggregation (first reason wins): the CLI notice and the
      // run header's "perf_degraded" key come from here, once per run, no
      // matter how many workers open degraded samplers.
      degraded_reason_ = buffer.sampler->unavailable_reason();
    }
  }
  if (options_.span_probe) {
    buffer.probe = std::make_unique<telemetry::SpanProbe>();
  }
  registry.emplace(id_, &buffer);
  return buffer;
}

std::optional<core::CounterSample> TraceJournal::kernel_phase_counters() const {
  const auto& registry = thread_registry();
  const auto it = registry.find(id_);
  if (it == registry.end()) return std::nullopt;
  const PerfSample& perf = it->second->pending;
  if (!perf.valid) return std::nullopt;
  core::CounterSample sample;
  sample.cycles = perf.cycles;
  sample.instructions = perf.instructions;
  sample.llc_misses = perf.llc_misses;
  sample.time_enabled_ns = perf.time_enabled_ns;
  sample.time_running_ns = perf.time_running_ns;
  sample.scaled = perf.scaled;
  sample.valid = true;
  return sample;
}

void TraceJournal::emit(const core::TraceEvent& event) {
  WorkerBuffer& buffer = local_buffer();
  PerfSample perf;
  if (event.kind == core::TraceEvent::Kind::Invocation) {
    if (buffer.pending.valid) {
      // The counters read at the last kernel_phase_end belong to the span
      // being recorded now (the evaluator emits the span right after the
      // phase closes, on the same thread).
      perf = buffer.pending;
      buffer.pending = PerfSample{};
    }
    if (options_.sidecar != nullptr) {
      // Telemetry routes to the sidecar and never into the journal body;
      // backend-modelled spans win over the host span probe (the sim model
      // is deterministic, the probe is wall-clock).
      if (event.telemetry.has_value() && event.telemetry->valid) {
        options_.sidecar->record_span(event);
      } else if (buffer.pending_telemetry.valid) {
        core::TraceEvent probed = event;
        probed.telemetry = buffer.pending_telemetry;
        options_.sidecar->record_span(probed);
      }
    }
    buffer.pending_telemetry = core::TelemetrySpan{};
  }
  Record record;
  record.epoch = event.epoch;
  record.ordinal = event.config_ordinal;
  record.invocation = event.invocation;
  record.rank = event.rank;
  record.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  record.begin = buffer.text.str().size();
  write_record(buffer.text, event, perf);
  buffer.text.line_break();
  record.length = static_cast<std::uint32_t>(buffer.text.str().size() - record.begin);
  buffer.records.push_back(record);
}

void TraceJournal::kernel_phase_begin() {
  WorkerBuffer& buffer = local_buffer();
  if (buffer.sampler) buffer.sampler->begin();
  if (buffer.probe) buffer.probe->begin();
}

void TraceJournal::kernel_phase_end() {
  WorkerBuffer& buffer = local_buffer();
  if (buffer.sampler) buffer.pending = buffer.sampler->end();
  if (buffer.probe) buffer.pending_telemetry = buffer.probe->end();
}

std::size_t TraceJournal::event_count() const {
  const std::scoped_lock lock(mutex_);
  std::size_t n = 0;
  for (const auto& buffer : buffers_) n += buffer->records.size();
  return n;
}

const char* TraceJournal::perf_unavailable_reason() {
  if (!options_.perf_counters) return "";
  {
    const std::scoped_lock lock(mutex_);
    if (!buffers_.empty()) return degraded_reason_.c_str();
  }
  // No worker ever sampled (a run with zero invocations): probe this
  // thread once so the notice still reflects the environment.
  local_buffer();
  const std::scoped_lock lock(mutex_);
  return degraded_reason_.c_str();
}

std::string TraceJournal::str() const {
  struct Line {
    const Record* record;
    const char* text;  ///< the emitting worker's text
  };
  std::vector<Line> merged;
  std::size_t body_bytes = 0;
  std::string degraded;
  {
    const std::scoped_lock lock(mutex_);
    std::size_t records = 0;
    for (const auto& buffer : buffers_) records += buffer->records.size();
    merged.reserve(records);
    for (const auto& buffer : buffers_) {
      const char* text = buffer->text.str().data();
      for (const Record& record : buffer->records) {
        merged.push_back({&record, text});
        body_bytes += record.length;
      }
    }
    degraded = degraded_reason_;
  }
  // Logical order first; emission order breaks the (rare) ties — e.g. a
  // Resume record and the first block's frozen incumbent share a cell, and
  // both are emitted by the coordinating thread in a fixed order.
  std::sort(merged.begin(), merged.end(), [](const Line& a, const Line& b) {
    const auto key = [](const Record& r) {
      return std::make_tuple(r.epoch, r.ordinal, r.invocation, r.rank, r.seq);
    };
    return key(*a.record) < key(*b.record);
  });

  util::JsonWriter w;
  if (options_.provenance.has_value()) {
    // Environment provenance precedes even the run header: whatever else a
    // reader does with a journal, the machine state it was recorded under
    // comes first.
    options_.provenance->write_provenance(w);
    w.line_break();
  }

  w.begin_object();
  w.key("t").value("run");
  w.key("v").value(kJournalSchemaVersion);  // docs/observability.md
  w.key("benchmark").value(header_ ? header_->benchmark : "");
  w.key("metric").value(header_ ? header_->metric : "");
  w.key("strategy").value(header_ ? header_->strategy : "");
  // Written only when a sampler degraded, so journals from healthy runs
  // keep their historical bytes.
  if (!degraded.empty()) w.key("perf_degraded").value(degraded);
  w.end_object();
  w.line_break();

  util::JsonWriter tail;
  if (summary_.has_value() && summary_->scheduler.has_value()) {
    // Scheduler accounting rides between the events and the summary as its
    // own record so the summary line's bytes never depend on whether stats
    // were collected.  Everything here is wall-clock — the one record in a
    // journal that is EXPECTED to differ across reruns.
    const core::SchedulerStats& s = *summary_->scheduler;
    tail.begin_object();
    tail.key("t").value("scheduler");
    s.write_fields(tail);
    tail.key("idle_fraction").value(s.idle_fraction());
    tail.end_object();
    tail.line_break();
  }

  if (summary_.has_value()) {
    tail.begin_object();
    tail.key("t").value("summary");
    tail.key("configs").value(summary_->configs);
    tail.key("pruned").value(summary_->pruned);
    tail.key("invocations").value(summary_->invocations);
    tail.key("iterations").value(summary_->iterations);
    write_optional(tail, "best", summary_->best);
    tail.end_object();
    tail.line_break();
  }

  std::string out;
  out.reserve(w.str().size() + body_bytes + tail.str().size());
  out += w.str();
  for (const Line& line : merged) {
    out.append(line.text + line.record->begin, line.record->length);
  }
  out += tail.str();
  return out;
}

void TraceJournal::flush() const {
  if (options_.path.empty()) return;
  const util::ProfileSpan span(util::ProfileCategory::JournalFlush);
  if (!util::write_text_file(options_.path, str())) {
    throw std::runtime_error("journal: write to '" + options_.path + "' failed");
  }
}

}  // namespace rooftune::trace

#pragma once
// Read side of the trace journal: parses JSONL back into flat records.
//
// A record is the line's serialized fields, not a core::TraceEvent: what a
// line names by value (its configuration, an elimination basis or a
// counter-prune class, a counter sample, an arena delta) lives once in a
// table of the Journal, and the record holds its index.  Each distinct
// "cfg" is parsed once per ordinal; a line whose "cfg" differs from every
// earlier one of its ordinal gets its own entry.
//
// Large journals are cut at line boundaries into chunks that are parsed
// on up to std::thread::hardware_concurrency() threads (at least ~256 KiB
// a chunk, so a small journal stays on the calling thread) and merged in
// line order.  The result and every error message are those of one pass
// over the lines: the provenance record must precede every other line,
// the last "run", "summary" and "scheduler" lines win, a journal without a
// "run" line is refused, and a refusal names the lowest-numbered failing
// line.
//
// The reader is strict where it matters for analysis correctness — unknown
// record types, unknown stop reasons, and malformed sort keys are errors,
// not silently misfiled records — and lenient about fields it does not
// consume, so a newer writer with additional fields stays readable.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/sched_stats.hpp"
#include "core/trace_events.hpp"
#include "telemetry/environment.hpp"
#include "trace/perf_counters.hpp"
#include "util/workspace_arena.hpp"

namespace rooftune::trace {

/// Parsed journal header (the "run" line).
struct JournalHeader {
  int version = 0;
  std::string benchmark;
  std::string metric;
  std::string strategy;
  /// Counter-degradation reason recorded by the writer ("" when counters
  /// were healthy or not requested) — explains missing measured-OI columns.
  std::string perf_degraded;

  friend bool operator==(const JournalHeader&, const JournalHeader&) = default;
};

/// Parsed journal footer (the "summary" line).
struct JournalSummary {
  std::uint64_t configs = 0;
  std::uint64_t pruned = 0;
  std::uint64_t invocations = 0;
  std::uint64_t iterations = 0;
  std::optional<double> best;

  friend bool operator==(const JournalSummary&, const JournalSummary&) = default;
};

/// One event line as its serialized fields.  The sort key and the fields
/// of the line's kind are meaningful; the rest keep their defaults.  Names
/// follow core::TraceEvent, whose docs give each field's meaning.
struct JournalRecord {
  /// The index of a table entry a record does not name.
  static constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

  core::TraceEvent::Kind kind = core::TraceEvent::Kind::Invocation;

  // ---- logical sort key ----
  std::uint64_t epoch = 0;
  std::uint64_t config_ordinal = 0;
  std::uint64_t invocation = 0;
  int rank = 0;

  // ---- Journal table indices (kNone when absent) ----
  std::uint32_t config = kNone;  ///< Journal::configs: the non-empty "cfg"
  std::uint32_t label = kNone;   ///< Journal::labels: "basis" or "class"
  std::uint32_t perf = kNone;    ///< Journal::perf_samples: "perf"
  std::uint32_t arena = kNone;   ///< Journal::arena_deltas: "arena"

  core::StopReason reason = core::StopReason::None;
  bool outer_level = false;           ///< stop: "level" is "invocation"
  bool have_ci = false;
  bool deterministic_timing = false;  ///< invocation: "det"
  bool trend_rising = false;          ///< invocation: "rising"
  bool pruned = false;
  bool widened = false;
  bool model_log_scale = false;       ///< surrogate-fit summary: "scale"

  std::uint64_t count = 0;       ///< stop, elimination, counter-prune; fit "samples"
  std::uint64_t iterations = 0;
  double mean = 0.0;
  double ci_lower = 0.0;
  double ci_upper = 0.0;
  double kernel_s = 0.0;  ///< also an iteration-level stop's consumed seconds
  double setup_s = 0.0;
  double wall_s = 0.0;
  double stddev = 0.0;
  double value = 0.0;     ///< incumbent, config-done; a fit seed's "measured"
  std::optional<double> incumbent;
  std::optional<double> flops;
  std::optional<double> bytes;
  std::optional<double> predicted;

  // ---- elimination ----
  std::uint64_t leader_ordinal = 0;
  double leader_ci_lower = 0.0;
  double leader_ci_upper = 0.0;

  // ---- round / resume / surrogate summaries ----
  std::uint64_t survivors_before = 0;
  std::uint64_t survivors_after = 0;
  std::uint64_t eliminated = 0;
  std::uint64_t finished = 0;
  std::uint64_t restored_configs = 0;
  std::uint64_t scanned = 0;
  std::uint64_t kept = 0;
  double r2 = 0.0;

  // ---- counter-prune ----
  double bound = 0.0;
  double margin = 0.0;
  std::optional<double> oi;

  friend bool operator==(const JournalRecord&, const JournalRecord&) = default;
};

struct Journal {
  JournalHeader header;
  /// Machine-environment provenance when the writer recorded one (journals
  /// predating the provenance record simply have none).
  std::optional<telemetry::EnvironmentFingerprint> provenance;
  std::vector<JournalRecord> records;
  /// Every distinct (ordinal, "cfg") pair, in order of first appearance.
  std::vector<core::Configuration> configs;
  /// Distinct elimination bases and counter-prune classes.
  std::vector<std::string> labels;
  std::vector<PerfSample> perf_samples;
  std::vector<util::ArenaStats> arena_deltas;
  std::optional<JournalSummary> summary;
  /// Parallel-scheduler accounting ({"t":"scheduler"}), present only when
  /// the run collected it (--sched-stats).  Wall-clock numbers: the one
  /// record exempt from the journal's bit-identity guarantee.
  std::optional<core::SchedulerStats> scheduler;

  /// The record's configuration; an empty one when the line had no "cfg".
  [[nodiscard]] const core::Configuration& config(const JournalRecord& record) const;
  /// The record's basis or class; empty when it has none.
  [[nodiscard]] std::string_view label(const JournalRecord& record) const;
  /// The record's counter sample, or nullptr.
  [[nodiscard]] const PerfSample* perf(const JournalRecord& record) const;

  friend bool operator==(const Journal&, const Journal&) = default;
};

/// Parse a whole journal from JSONL text.  Throws std::runtime_error with
/// the offending line number on malformed input, unknown record types, or
/// stop-reason strings that do not round-trip through
/// core::stop_reason_from_string.
[[nodiscard]] Journal read_journal(std::string_view text);

/// read_journal over a file's contents.
[[nodiscard]] Journal read_journal_file(const std::string& path);

namespace detail {

/// read_journal with the text cut into exactly `chunks` chunks (at line
/// boundaries; some may be empty), parsed on up to
/// min(chunks, hardware_concurrency()) threads.  A seam for tests that
/// pin the result's independence from the cut; read_journal picks the
/// count itself.
[[nodiscard]] Journal read_journal(std::string_view text, std::size_t chunks);

}  // namespace detail

}  // namespace rooftune::trace

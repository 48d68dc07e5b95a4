#pragma once
// Portable tuning-benchmark export (schema v1) — the interchange layer
// external tuners can consume, and the replay layer that verifies it.
//
// An export is one self-describing JSON document holding everything needed
// to reproduce a tuning comparison without this repository's code: the
// search-space definition (SearchSpace::to_json — declarative, including
// ConstraintSpec constraints), the environment fingerprint the measurements
// were taken under, the per-configuration sample sets at invocation
// granularity, the recorded optimum, and the benchmarking-technique
// metadata that explains *how* the samples were gathered (strategy, stop
// conditions — the paper's point being that this changes the outcome).
// docs/formats.md is the field-for-field specification.
//
// Two writers share the format: make_export() serializes a live TuningRun;
// export_from_journal() reconstructs the same document from a trace
// journal (the journal's invocation records carry every field the export
// needs).  parse_export() + replay_export() close the loop: every recorded
// configuration is rebuilt as the tuner's own core::ConfigResult and
// reduced with core::TuningRun::add, which checks that every aggregate
// value — and the optimum — reproduce bit-identically (Welford over one
// recorded mean returns it exactly; doubles are serialized
// round-trip-exactly at %.17g).
//
// Determinism guarantees (docs/formats.md §Determinism):
//   * write_export is a pure function of its inputs — no timestamps,
//     hostnames, or iteration-order dependence;
//   * parse_export(write_export(doc)) → write_export is byte-identical
//     (config keys are written in search-space parameter order, which the
//     parser restores; doubles round-trip exactly);
//   * replay_export re-derives every config value and the optimum from the
//     per-invocation records alone and verifies them by exact comparison.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/autotuner.hpp"
#include "core/config.hpp"
#include "core/evaluator.hpp"
#include "core/search_space.hpp"
#include "telemetry/environment.hpp"
#include "trace/reader.hpp"

namespace rooftune::trace {

/// Schema version written by this build and the newest it can read.
inline constexpr int kExportSchemaVersion = 1;

/// One invocation's sample set (the moments of its iteration samples).
struct ExportInvocation {
  double mean = 0.0;
  double stddev = 0.0;  ///< 0 when fewer than two iterations
  std::uint64_t iterations = 0;
  std::string stop;     ///< core stop-reason string ("max-count", ...)
  double kernel_s = 0.0;
  double setup_s = 0.0;
  double wall_s = 0.0;
};

/// One configuration's complete evaluation record.
struct ExportConfigResult {
  core::Configuration config;
  double value = 0.0;   ///< ConfigResult::value() — the reported metric
  bool pruned = false;
  std::string stop;     ///< outer stop reason
  std::uint64_t iterations = 0;  ///< total across invocations
  double kernel_s = 0.0;
  double setup_s = 0.0;
  std::vector<ExportInvocation> invocations;
};

/// How the samples were gathered.  Only `strategy` is always known (it is
/// in every journal header); the rest is recorded when exporting from a
/// live run and omitted when reconstructing from a journal.
struct ExportTechnique {
  std::string strategy;
  std::optional<std::string> order;
  std::optional<std::uint64_t> invocations;
  std::optional<std::uint64_t> iterations;
  std::optional<double> timeout_s;
  std::optional<double> confidence;
  std::optional<double> tolerance;
  std::optional<bool> confidence_stop;
  std::optional<bool> inner_prune;
  std::optional<bool> outer_prune;
  std::optional<bool> counter_prune;
};

/// The parsed/produced document, 1:1 with the JSON schema.
struct ExportDocument {
  int version = kExportSchemaVersion;
  std::string benchmark;
  std::string metric;
  ExportTechnique technique;
  std::optional<telemetry::EnvironmentFingerprint> environment;
  core::SearchSpace space;
  std::vector<ExportConfigResult> results;  ///< in visit order
  std::optional<std::size_t> best_index;    ///< into results
};

/// Build an export from a live tuning run.
[[nodiscard]] ExportDocument make_export(
    const core::TuningRun& run, const core::SearchSpace& space,
    const std::string& benchmark, const std::string& metric,
    const core::TunerOptions& options,
    std::optional<telemetry::EnvironmentFingerprint> environment);

/// Reconstruct an export from a parsed trace journal.  The journal does not
/// carry the space definition, so the caller supplies it (the CLI resolves
/// the standard space from the journal's benchmark name).  Configuration
/// values and the optimum are recomputed from the per-invocation records
/// the way replay_export() re-scores them —
/// the journal rounds doubles to 12 significant digits, so recomputing
/// keeps the document internally consistent (replayable bit-identically
/// against itself).  Throws std::runtime_error when a configuration is not
/// a point of `space`, when a recomputed value strays from the journal's
/// recorded one by more than rounding error, or when invocation records
/// are missing.
[[nodiscard]] ExportDocument export_from_journal(const Journal& journal,
                                                 core::SearchSpace space);

/// Serialize (see determinism guarantees above).
[[nodiscard]] std::string write_export(const ExportDocument& doc);

/// Parse an export document.  Throws std::runtime_error — with a distinct
/// "schema version N ... newer than ... M" message when the document comes
/// from a newer writer — on malformed or unsupported input.  A well-formed
/// document is refused, with the offending value's line and column, when a
/// configuration is not a point of its space, or when `best` names no
/// result or disagrees with the result it names.
[[nodiscard]] ExportDocument parse_export(const std::string& text);

/// write_export to / parse_export from a file.  Throws std::runtime_error
/// on I/O failure.
void write_export_file(const std::string& path, const ExportDocument& doc);
[[nodiscard]] ExportDocument parse_export_file(const std::string& path);

/// Outcome of re-scoring an export's recorded samples.
struct ReplayOutcome {
  std::size_t configs = 0;            ///< configurations replayed
  std::size_t value_mismatches = 0;   ///< re-scored value != recorded (exact)
  std::optional<std::size_t> replayed_best_index;
  double replayed_best_value = 0.0;
  bool best_index_matches = false;
  bool best_value_matches = false;
  std::string first_mismatch;         ///< human-readable detail, "" when ok

  [[nodiscard]] bool ok() const {
    return value_mismatches == 0 && best_index_matches && best_value_matches;
  }
};

/// Re-score the exported space: rebuild every configuration as a
/// core::ConfigResult whose invocations hold the recorded means and stop
/// reasons, and reduce them with core::TuningRun::add.  Every aggregate
/// (with the pruned-invocation exclusion of ConfigResult::value()) and the
/// optimum (TuningRun's first-strictly-greater incumbent rule) are
/// re-derived by the tuner's own code.  A configuration with a
/// zero-iteration invocation is counted as a mismatch and not re-scored.
/// All comparisons are exact (bitwise) double equality.
[[nodiscard]] ReplayOutcome replay_export(const ExportDocument& doc);

}  // namespace rooftune::trace

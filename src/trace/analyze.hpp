#pragma once
// Journal analysis: turns a parsed trace into the `rooftune trace` report —
// per-configuration elimination timeline, per-stop-condition iteration
// accounting, prune-savings summary, and operational-intensity columns
// (analytic next to counter-derived).

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "trace/reader.hpp"

namespace rooftune::trace {

/// How one configuration fared, reduced from its journal records.
struct ConfigTimeline {
  std::uint64_t ordinal = 0;
  std::string config;          ///< Configuration::to_string()
  std::string outcome;         ///< "finished", "pruned", "eliminated"
  std::string stop_reason;     ///< final outer stop reason
  std::uint64_t invocations = 0;
  std::uint64_t iterations = 0;
  double value = 0.0;
  double kernel_s = 0.0;
  double setup_s = 0.0;
  /// Racing only: the round the configuration left the race, and on what
  /// basis ("iteration-ci", "invocation-ci", "inner-prune").
  std::optional<std::uint64_t> eliminated_round;
  std::string elimination_basis;
  /// Operational intensity, FLOP/byte.  Analytic = journal flops/bytes
  /// fields (e.g. TRIAD 1/12, DGEMM 2nmk / 8(nk+km+nm)); measured = flops
  /// over 64 x LLC misses, present only when counters were sampled.
  std::optional<double> analytic_intensity;
  std::optional<double> measured_intensity;
};

/// Iterations accounted to one stop condition across the run.  Every
/// invocation ends with exactly one iteration-level stop decision, so the
/// per-reason iteration sums partition the run total — analyze() verifies
/// that invariant against the journal's summary line.
struct StopAccounting {
  std::uint64_t decisions = 0;   ///< invocations ended by this reason
  std::uint64_t iterations = 0;  ///< iterations those invocations consumed
};

/// Surrogate-strategy section of the analysis: model quality from the
/// "surrogate-fit" records and scan statistics from "prune-batch".
struct SurrogateAnalysis {
  std::uint64_t samples = 0;       ///< seed configurations the model trained on
  double r2 = 0.0;                 ///< training R² in fit scale
  bool log_scale = false;          ///< model fitted on log-transformed values
  std::uint64_t scanned = 0;       ///< unseeded configurations scored
  std::uint64_t kept = 0;          ///< candidates forwarded to the confirm race
  /// Per-seed |predicted − measured| / max(measured, ε), averaged — a quick
  /// in-journal read on how well the model reproduces its training set.
  std::optional<double> mean_seed_error;
  /// Kept candidates in prune order: (config string, predicted value).
  std::vector<std::pair<std::string, double>> candidates;
};

/// Counter-prune section of the analysis, reduced from "counter-prune"
/// records: which configurations the bottleneck classifier stopped, on what
/// class bound, and how many bounds were multiplex-widened.
struct CounterPruneAnalysis {
  std::uint64_t pruned = 0;   ///< configurations stopped by a counter bound
  /// Of those, configurations skipped before their first invocation (the
  /// calibrated analytic-intensity path; their records carry count = 0).
  std::uint64_t skipped = 0;
  std::uint64_t widened = 0;  ///< prunes whose bound was multiplex-widened
  double margin = 0.0;        ///< policy margin in effect
  /// Bottleneck class string ("dram", "compute", "latency") → prune count.
  std::map<std::string, std::uint64_t> by_class;
  struct Entry {
    std::string config;
    std::string cls;
    double bound = 0.0;             ///< class roofline bound, metric units
    std::optional<double> oi;       ///< measured OI (FLOP/byte), DRAM class
    std::optional<double> incumbent;
  };
  /// Pruned configurations in journal order.
  std::vector<Entry> entries;
};

struct TraceAnalysis {
  std::vector<ConfigTimeline> configs;
  /// Present only when the journal carries surrogate-fit/prune-batch records.
  std::optional<SurrogateAnalysis> surrogate;
  /// Present only when the journal carries counter-prune records.
  std::optional<CounterPruneAnalysis> counter_prune;
  /// Keyed by stop reason string, iteration level only.
  std::map<std::string, StopAccounting> by_reason;
  std::uint64_t total_invocations = 0;
  std::uint64_t total_iterations = 0;
  /// Iterations a fixed-budget schedule (every invocation running to the
  /// largest per-invocation iteration count seen in this journal) would
  /// have spent, minus what was actually spent.  The journal-level view of
  /// the paper's Tables VIII–XI savings.
  std::uint64_t saved_iterations = 0;
  std::uint64_t max_invocation_iterations = 0;
  /// Invocations whose perf counts were extrapolated from a partial PMU
  /// slice (counter multiplexing) — the report warns when nonzero, since
  /// scaled counts are estimates, not exact event counts.
  std::uint64_t scaled_perf_invocations = 0;
  /// Racing round summaries in order (empty for exhaustive runs).
  std::vector<JournalRecord> rounds;
  /// Cross-check failures (summary totals vs. per-record sums); empty when
  /// the journal is internally consistent.
  std::vector<std::string> inconsistencies;
};

/// Reduce a parsed journal.  Pure function of the journal contents.
[[nodiscard]] TraceAnalysis analyze(const Journal& journal);

/// Render the full `rooftune trace` report (timeline, stop accounting,
/// savings, intensity columns) as fixed-width text.
[[nodiscard]] std::string render_report(const Journal& journal,
                                        const TraceAnalysis& analysis);

/// The JSONL schema reference embedded in `rooftune trace --help`
/// (mirrors docs/observability.md).
[[nodiscard]] const char* schema_reference();

}  // namespace rooftune::trace

#pragma once
// TraceJournal — the concrete core::TraceSink: per-worker serialization,
// deterministic merge, JSONL output, optional per-invocation hardware
// counters.
//
// Concurrency model: emit() serializes the event on the calling thread into
// a text buffer owned by that thread (one lock acquisition per thread's
// *first* event, none after), and keeps only a small index entry per record:
// its logical sort key (epoch, config ordinal, invocation, rank), its
// emission sequence number and where its line sits in that thread's text.
// ParallelEvaluator workers never contend on the hot path.  flush()/str()
// sort the index by the logical key with emission order as the tie-break
// and concatenate the lines — on the simulated backends the result is
// byte-identical run-to-run and across 1/2/8 workers, because nothing
// position-dependent (timestamps, sequence numbers, worker ids) is ever
// serialized.  docs/observability.md is the schema reference.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sched_stats.hpp"
#include "core/trace_events.hpp"
#include "telemetry/environment.hpp"
#include "telemetry/sidecar.hpp"
#include "telemetry/span_probe.hpp"
#include "trace/perf_counters.hpp"
#include "util/json.hpp"

namespace rooftune::trace {

struct JournalOptions {
  /// JSONL output path for flush(); empty keeps the journal in memory only
  /// (tests and embedders read str() instead).
  std::string path;
  /// Attach perf_event counter deltas (cycles, instructions, LLC misses)
  /// to every invocation record.  Degrades to a no-op when the kernel
  /// refuses perf_event_open — see PerfCounterSampler.
  bool perf_counters = false;
  /// Machine-environment fingerprint serialized as the journal's first
  /// line ({"t":"provenance"}), ahead of the run header.  The fields are
  /// stable on a fixed machine (no timestamps/hostnames), so the record
  /// participates in the bit-identity guarantee there.
  std::optional<telemetry::EnvironmentFingerprint> provenance;
  /// Destination for per-invocation telemetry spans.  Telemetry NEVER
  /// enters the journal body — events carrying a TelemetrySpan have it
  /// forwarded here and stripped from serialization, so attaching
  /// telemetry cannot change the journal's bytes.  Non-owning; may be null.
  telemetry::TelemetrySidecar* sidecar = nullptr;
  /// Probe sysfs frequency/RAPL at kernel-phase boundaries for backends
  /// that report no telemetry of their own (native/pipe runs).  Degrades
  /// per capability; see telemetry::SpanProbe.
  bool span_probe = false;
};

/// JSONL schema version this build writes ({"t":"run","v":N,...}) and the
/// newest the reader accepts.  Bump on any change a v1 reader would
/// misinterpret; readers reject newer journals with a version-specific
/// error instead of failing on whatever field changed.
inline constexpr int kJournalSchemaVersion = 1;

/// First line of the journal: what was tuned, with what schedule.
/// Deliberately excludes worker counts, hostnames, and timestamps — the
/// header participates in the bit-identity guarantee.
struct RunHeader {
  std::string benchmark;  ///< "dgemm", "triad", "pipe", ...
  std::string metric;     ///< Backend::metric_name()
  std::string strategy;   ///< to_string(TunerOptions::strategy)
};

/// Last line of the journal: run totals, written by finish_run.  The
/// analyzer cross-checks these against the per-record sums (every
/// iteration must be accounted to exactly one stop decision).
struct RunSummary {
  std::uint64_t configs = 0;
  std::uint64_t pruned = 0;
  std::uint64_t invocations = 0;
  std::uint64_t iterations = 0;
  std::optional<double> best;
  /// Parallel-scheduler accounting (TuningRun::sched), serialized as its
  /// own {"t":"scheduler"} record just before the summary.  Absent by
  /// default: its counters are wall-clock measurements, so a journal that
  /// carries them is NOT expected to be byte-identical across reruns —
  /// callers opt in (--sched-stats) knowing they trade that away.
  std::optional<core::SchedulerStats> scheduler;
};

class TraceJournal final : public core::TraceSink {
 public:
  explicit TraceJournal(JournalOptions options = {});
  ~TraceJournal() override;

  /// Record run metadata (serialized as the first line).
  void begin_run(RunHeader header);

  /// Record run totals (serialized as the last line).
  void finish_run(RunSummary summary);

  void emit(const core::TraceEvent& event) override;
  void kernel_phase_begin() override;
  void kernel_phase_end() override;
  /// The calling thread's last kernel-phase counter deltas, converted to
  /// the core seam type — how sampled hardware counters reach the
  /// counter-prune policy (core/bottleneck.hpp) on real backends.
  [[nodiscard]] std::optional<core::CounterSample> kernel_phase_counters()
      const override;

  /// The journal as JSONL: the provenance and run header, every emitted
  /// record's line in deterministic order, then the scheduler record and
  /// the summary.  Safe to call while no worker is concurrently emitting.
  [[nodiscard]] std::string str() const;

  /// str() written to JournalOptions::path (no-op when the path is empty).
  void flush() const;

  [[nodiscard]] std::size_t event_count() const;

  /// Run-level counter degradation: the first unavailability reason any
  /// worker's sampler reported ("" when every sampler opened).  One string
  /// per run regardless of worker count or invocation count — the CLI
  /// prints it once, and the run header records it as "perf_degraded" so
  /// `rooftune trace` can explain missing measured-OI columns.  Meaningful
  /// only with JournalOptions::perf_counters.
  [[nodiscard]] const char* perf_unavailable_reason();

 private:
  /// Where one serialized record lives: its sort key and its line's slice
  /// of the emitting worker's text (trailing '\n' included).
  struct Record {
    std::uint64_t epoch = 0;
    std::uint64_t ordinal = 0;
    std::uint64_t invocation = 0;
    std::uint64_t seq = 0;    ///< emission order; merge tie-break, never serialized
    std::size_t begin = 0;    ///< offset of the line in WorkerBuffer::text
    std::uint32_t length = 0; ///< bytes of the line
    int rank = 0;
  };
  struct WorkerBuffer {
    util::JsonWriter text;  ///< this worker's records, one line each
    std::vector<Record> records;
    std::unique_ptr<PerfCounterSampler> sampler;
    PerfSample pending;  ///< last kernel phase's deltas, not yet attached
    std::unique_ptr<telemetry::SpanProbe> probe;
    core::TelemetrySpan pending_telemetry;  ///< last phase's probe span
  };

  WorkerBuffer& local_buffer();
  /// Thread-local journal-id → buffer map shared by local_buffer() (which
  /// creates entries) and kernel_phase_counters() (lookup only).
  static std::unordered_map<std::uint64_t, WorkerBuffer*>& thread_registry();

  JournalOptions options_;
  const std::uint64_t id_;  ///< keys the thread-local buffer registry
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<WorkerBuffer>> buffers_;
  std::atomic<std::uint64_t> seq_{0};
  std::optional<RunHeader> header_;
  std::optional<RunSummary> summary_;
  /// First sampler-unavailability reason seen across all workers (guarded
  /// by mutex_; set where samplers are created, in local_buffer).
  std::string degraded_reason_;
};

}  // namespace rooftune::trace

#pragma once
// Checkpointed tuning sessions.
//
// The paper's tool runs each benchmark as a separate program invocation
// driven by an outer tuning process; on a shared cluster (§V: SLURM jobs)
// that process can be killed mid-search.  A TuningSession keeps one
// checkpoint for every strategy: an append-only JSON-lines log of completed
// invocations (InvocationLog).  Its first line is a header naming the
// search; each later line is one invocation's bit-exact result, appended
// and flushed as soon as the invocation completes.
//
// Resuming needs no strategy-specific state.  The stop rules, racing
// elimination, counter-guided skips and the surrogate fit are deterministic
// functions of the invocation results, so the session simply runs the
// ordinary Autotuner again with the log attached (TunerOptions::checkpoint):
// core::run_invocation hands back the logged results in order instead of
// calling the backend, and once they run out it measures and appends.  With
// the deterministic simulated backends a resumed run is bit-identical to an
// uninterrupted one.

#include <cstdint>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/autotuner.hpp"

namespace rooftune::core {

/// The checkpoint log a session attaches to TunerOptions::checkpoint.  Not
/// thread-safe: it serves the serial tuner only (the CLI refuses
/// --workers with --checkpoint).
class InvocationLog {
 public:
  /// One logged invocation, keyed by the configuration ordinal and
  /// invocation index run_invocation was asked for.
  struct Record {
    std::uint64_t ordinal = 0;
    std::uint64_t invocation = 0;
    InvocationResult result;
    std::size_t line = 0;  ///< 1-based line in the log file
  };

  /// Opens the log at `path` for appending.  `keep_bytes` is the length of
  /// the existing file's complete lines, whose header the caller validated
  /// and whose records it parsed into `records` for replay; the file is cut
  /// there, dropping a torn last line.  0 starts a fresh file with `header`.
  InvocationLog(std::string path, const std::string& header,
                std::vector<Record> records, std::size_t keep_bytes);

  /// The logged result of invocation `invocation` of configuration
  /// `ctx.config_ordinal`, while logged records remain; throws when the next
  /// record is for a different invocation.  Once the records run out it
  /// returns nothing, and the first such call switches the log live and
  /// emits one `resume` record to `trace` at that invocation's cell.
  [[nodiscard]] std::optional<InvocationResult> replay(const TraceContext& ctx,
                                                       std::uint64_t invocation,
                                                       TraceSink* trace);

  /// Append one completed live invocation and flush it to the file.
  void append(std::uint64_t ordinal, std::uint64_t invocation,
              const InvocationResult& result);

  /// True once the first live invocation started (the replayed prefix is
  /// over).
  [[nodiscard]] bool live() const { return live_; }
  /// Configurations with at least one replayed invocation.
  [[nodiscard]] std::size_t restored_configs() const { return restored_; }
  /// Throws when logged records were left over at the end of the run.
  void expect_drained() const;

 private:
  std::string path_;
  std::vector<Record> records_;
  std::size_t next_ = 0;
  std::size_t restored_ = 0;
  bool live_ = false;
  std::ofstream out_;
};

class TuningSession {
 public:
  /// `checkpoint_path`: the invocation log, appended after every invocation
  /// and removed when the run completes.
  TuningSession(SearchSpace space, TunerOptions options, std::string checkpoint_path);

  /// Run the search, resuming from the checkpoint when one exists.  A
  /// checkpoint from a different space / options combination is rejected
  /// with std::runtime_error (never silently mixed), as is one recorded
  /// under a different journal path or machine-environment fingerprint
  /// (TunerOptions::env_fingerprint — governor/turbo/topology changes
  /// invalidate partial measurements), and one in an older format.  While
  /// logged invocations replay the journal sink is muted; the first live
  /// invocation emits a `resume` record.  On success the checkpoint file is
  /// removed.
  [[nodiscard]] TuningRun run(Backend& backend);

  /// Number of configurations with at least one invocation restored by the
  /// last run() call.
  [[nodiscard]] std::size_t resumed_configs() const { return resumed_; }

  /// Fingerprint covering the walked configuration sequence and the options
  /// that change evaluation semantics; exposed for tests.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  [[nodiscard]] std::string header() const;

  SearchSpace space_;
  TunerOptions options_;
  std::string path_;
  std::size_t resumed_ = 0;
};

}  // namespace rooftune::core

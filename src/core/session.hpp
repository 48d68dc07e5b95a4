#pragma once
// Checkpointed tuning sessions.
//
// The paper's tool runs each benchmark as a separate program invocation
// driven by an outer tuning process; on a shared cluster (§V: SLURM jobs)
// that process can be killed mid-search.  A TuningSession persists a JSON
// checkpoint after every evaluated configuration, so an interrupted search
// resumes exactly where it stopped — already-evaluated configurations are
// restored (including the incumbent used for pruning), only the remainder
// runs.  With the deterministic simulated backends, a resumed run is
// bit-identical to an uninterrupted one.

#include <optional>
#include <string>

#include "core/autotuner.hpp"
#include "core/racing.hpp"
#include "core/surrogate.hpp"

namespace rooftune::util {
class JsonValue;
}  // namespace rooftune::util

namespace rooftune::core {

class TuningSession {
 public:
  /// `checkpoint_path`: JSON file written after each configuration (via a
  /// temp file + rename, so a crash never leaves a torn checkpoint).
  TuningSession(SearchSpace space, TunerOptions options, std::string checkpoint_path);

  /// Run the search, resuming from the checkpoint when one with a matching
  /// fingerprint exists.  A checkpoint from a different space / options
  /// combination is rejected with std::runtime_error (never silently
  /// mixed), as is one recorded under a different machine-environment
  /// fingerprint (TunerOptions::env_fingerprint — governor/turbo/topology
  /// changes invalidate partial measurements).  On success the checkpoint
  /// file is removed.
  ///
  /// Under SearchStrategy::Racing the checkpoint is written after every
  /// *round* instead of every configuration: each survivor's partial
  /// moments (per-invocation means, exactly bit-preserved) serialize into
  /// the JSON, so a race interrupted mid-round resumes from the last round
  /// barrier and — on the deterministic simulated backends — finishes
  /// bit-identical to an uninterrupted run.
  ///
  /// Under SearchStrategy::Surrogate the checkpoint additionally records
  /// the phase: mid-seed it holds the completed seed evaluations (bit
  /// exact, racing-style); mid-confirm it holds the fitted model
  /// coefficients, the kept candidate indices and the confirm race state —
  /// a resume never refits the model or re-emits fit/prune trace records.
  [[nodiscard]] TuningRun run(Backend& backend);

  /// Number of configurations restored by the last run() call (for racing:
  /// configurations with at least one restored invocation).
  [[nodiscard]] std::size_t resumed_configs() const { return resumed_; }

  /// Fingerprint covering the walked configuration sequence and the options
  /// that change evaluation semantics; exposed for tests.
  [[nodiscard]] std::uint64_t fingerprint() const;

 private:
  void save_checkpoint(const TuningRun& run, std::optional<double> incumbent,
                       util::Seconds prior_time) const;
  [[nodiscard]] std::string checkpoint_json(const TuningRun& run,
                                            std::optional<double> incumbent,
                                            util::Seconds prior_time) const;

  [[nodiscard]] TuningRun run_racing(Backend& backend);
  void save_racing_checkpoint(const RacingScheduler::State& state) const;
  [[nodiscard]] std::string racing_checkpoint_json(
      const RacingScheduler::State& state) const;
  void restore_racing(RacingScheduler::State& state, const util::JsonValue& doc);

  [[nodiscard]] TuningRun run_surrogate(Backend& backend);
  void save_surrogate_checkpoint(const SurrogateScheduler::State& state) const;
  [[nodiscard]] std::string surrogate_checkpoint_json(
      const SurrogateScheduler::State& state) const;
  void restore_surrogate(const SurrogateScheduler& scheduler,
                         SurrogateScheduler::State& state, const util::JsonValue& doc);

  void check_fingerprint_and_context(const util::JsonValue& doc) const;
  void write_checkpoint_file(const std::string& content) const;

  SearchSpace space_;
  TunerOptions options_;
  std::string path_;
  std::size_t resumed_ = 0;
};

}  // namespace rooftune::core

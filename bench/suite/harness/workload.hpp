#pragma once
// The suite's workload interface.  Constructing a workload is its set-up
// (timed as setup_s); pass() is one timed pass; verify() holds the checks
// too slow to repeat every pass.

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/autotuner.hpp"
#include "harness/host.hpp"
#include "harness/spans.hpp"

namespace rooftune::suite {

struct RunContext {
  std::uint64_t seed = 2021;
  /// Scratch directory inside the checkout; workloads that write artifacts
  /// put them here.
  std::string workdir = ".";
  HostFacts host;
  /// EvalPool workers for the pool workloads: nproc - 1, leaving one CPU
  /// to the coordinator.
  [[nodiscard]] std::size_t pool_workers() const {
    return host.nproc > 1 ? host.nproc - 1 : 1;
  }
};

/// One verification; every check counts toward fail_rate.
struct Check {
  std::string name;
  bool ok = true;
  std::string detail;
};

struct PassOutcome {
  /// The paper's "Time" column summed over the pass's tuning runs: the
  /// backend clock's accounting, in simulated seconds.
  double search_time_s = 0.0;
  /// Kernel invocations and iterations the pass's tuning runs executed.
  std::uint64_t invocations = 0;
  std::uint64_t iterations = 0;
  /// Invocations each tuning run spent, in visit order, up to and including
  /// its winner, summed over the pass's runs.
  std::uint64_t invocations_to_optimum = 0;
  /// The tuned optima's rate as a share of the workload's reference
  /// optimum, averaged over the runs the workload scores (the paper's
  /// "error" is one minus this).
  double optimum_share = 0.0;
  /// Deterministic fields that must repeat bit-for-bit in every pass of a
  /// run (and between the traced and untraced pass).
  std::vector<std::pair<std::string, std::string>> exact;
  /// Workload-specific measurements, reported as medians over passes.
  std::map<std::string, double> details;
  /// Pass-derived per-layer metrics (metrics.hpp, source "pass").
  std::map<std::string, double> layer;
  std::vector<Check> checks;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass.  `tracer` is null for untraced passes; a traced pass wraps
  /// every call into a layer in a span.
  virtual PassOutcome pass(Tracer* tracer) = 0;
  /// Untimed, after set-up: brings allocator, page cache and thread pools
  /// to the state later passes see.  The first pass of the simulated
  /// workloads runs 20-30 % slower than the rest without it.
  virtual void warm_up() { pass(nullptr); }
  /// Checks run once after the timed passes, outside any timing.
  virtual std::vector<Check> verify() { return {}; }
};

/// Set-up: constructs the workload.
using WorkloadFactory = std::function<std::unique_ptr<Workload>(const RunContext&)>;

/// A workload and its fixed run length.  The counts depend on nothing the
/// code under test does, so a faster change runs exactly as many passes
/// and set-ups as its parent.
struct WorkloadSpec {
  const char* name;
  WorkloadFactory make;
  /// The pass length the run is sized by: a run of `seconds` makes
  /// round(seconds / pass_s) passes, at least one.
  double pass_s;
  /// Set-ups per untraced run, each from scratch and spread over the run;
  /// setup_s is their median, taken at the reference host's speed: divided
  /// by the run's median speed probe and multiplied by
  /// kSpeedProbeReferenceS.  Traced runs set up once.
  int setups;
  /// The pass is CPU-bound host code, so host_s is taken at the reference
  /// host's speed too: each pass is divided by the mean of the speed probes
  /// just before and after it.  grid6-pipeline's passes are mostly their
  /// stragglers' sleeps, which the probe does not measure, so it reports
  /// plain host seconds.
  bool scaled;

  [[nodiscard]] int passes(double seconds) const;
};

/// The pinned workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec& workload_spec(const std::string& name);

std::unique_ptr<Workload> make_paper_tables(const RunContext& ctx);
std::unique_ptr<Workload> make_grid6_pipeline(const RunContext& ctx);
std::unique_ptr<Workload> make_grid6_artifacts(const RunContext& ctx);
std::unique_ptr<Workload> make_artifact_readback(const RunContext& ctx);

/// "%.17g": the exact-field and detail formatting.
std::string exact_text(double value);

/// The paper's Time column for one tuning run as the backend accounted it:
/// the sum of its invocations' wall times, in visit order.  Unlike
/// TuningRun::total_time, a clock span whose last bits depend on which pool
/// worker ran what, this repeats bit for bit across passes and worker
/// counts.
double search_time(const core::TuningRun& run);

/// Invocations `run` spent in visit order up to and including its winner.
std::uint64_t invocations_to_optimum(const core::TuningRun& run);

/// Add one tuning run to a pass: its search time, invocations, iterations
/// and invocations to optimum, and its best configuration, value, time and
/// counts as exact fields under `key`.
void record_run(PassOutcome& out, const std::string& key, const core::TuningRun& run);

/// Check helper: a named boolean with an explanation when it fails.
Check check(std::string name, bool ok, std::string detail = {});

}  // namespace rooftune::suite

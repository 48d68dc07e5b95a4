// Ablation: what does the self-profiler cost when it is on?
//
// The profiler (util/profiler.hpp) is designed to be invisible: disabled,
// every hot-path call is one relaxed atomic load; enabled, a span is two
// steady-clock reads plus an append into a thread-owned ring.  This bench
// quantifies both claims on the profiler's busiest real workload — the
// racing strategy under the pipelined scheduler, where every task
// evaluation, steal, park, idle interval, and commit wait records — by
// running the identical tuning problem with profiling off and on and
// comparing host wall-clock.  Runs alternate and each mode keeps its best
// of `reps` to push scheduler noise below the effect size.
//
// Both runs must return bit-identical tuning results (the profiler sits
// entirely outside the evaluation path), and the on/off wall-clock delta
// must stay under 2% — the budget docs/observability.md advertises.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "simhw/sim_backend.hpp"
#include "util/json.hpp"
#include "util/profiler.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace rooftune;

struct ModeRun {
  std::string label;
  core::TuningRun run;
  double best_wall_s = 0.0;
  std::uint64_t records = 0;
  std::uint64_t dropped = 0;
};

core::TunerOptions tuner_options() {
  core::TunerOptions base;
  base.invocations = 3;
  base.iterations = 25;
  auto options = core::technique_options(core::Technique::Default, base);
  options.strategy = core::SearchStrategy::Racing;
  return options;
}

core::TuningRun run_once(const core::SearchSpace& space,
                         const simhw::MachineSpec& machine,
                         double cost_base_s, std::size_t workers,
                         double& wall_s) {
  simhw::SimOptions sim;
  sim.sockets_used = 1;
  sim.cost_skew = 1.0;  // uniform multiplier: enables the host-time cost
                        // model without making any configuration a straggler
  sim.cost_base_s = cost_base_s;
  const auto factory = [&machine, sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
  };
  core::ParallelOptions parallel;
  parallel.workers = workers;
  parallel.deterministic = true;
  parallel.lookahead = 4;

  core::ParallelEvaluator evaluator(factory, tuner_options(), parallel);
  const auto start = std::chrono::steady_clock::now();
  auto run = evaluator.run(space);
  const auto stop = std::chrono::steady_clock::now();
  wall_s = std::chrono::duration<double>(stop - start).count();
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rooftune;

  const int grid_scale = argc > 1 ? std::atoi(argv[1]) : 5;
  const std::size_t workers =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 4;
  const int reps = argc > 3 ? std::atoi(argv[3]) : 3;
  // Host cost per simulated invocation.  Real evaluations take hundreds of
  // microseconds to seconds; the budget is measured against that regime,
  // not against free tasks where the profiler's fixed ~60 ns/record cost
  // has nothing to amortize over.
  const double cost_base_s = argc > 4 ? std::atof(argv[4]) : 0.0002;

  const auto machine = simhw::machine_by_name("gold6148");
  const auto space = core::dgemm_scaled_space(grid_scale);

  std::cout << "Ablation: self-profiler overhead, racing strategy, "
            << "pipelined scheduler\n"
            << "grid scale " << grid_scale << " (" << space.cardinality()
            << " configs), " << workers << " workers, best of " << reps
            << " reps per mode\n\n";

  util::Profiler& profiler = util::Profiler::instance();
  ModeRun off{"profiler off", {}, 1e300, 0, 0};
  ModeRun on{"profiler on", {}, 1e300, 0, 0};
  for (int rep = 0; rep < reps; ++rep) {
    double wall = 0.0;
    off.run = run_once(space, machine, cost_base_s, workers, wall);
    off.best_wall_s = std::min(off.best_wall_s, wall);

    profiler.enable();
    on.run = run_once(space, machine, cost_base_s, workers, wall);
    const util::ProfileSnapshot snapshot = profiler.snapshot();
    profiler.disable();
    on.best_wall_s = std::min(on.best_wall_s, wall);
    on.records = snapshot.total_records();
    on.dropped = snapshot.total_dropped();
  }

  const double delta =
      (on.best_wall_s - off.best_wall_s) / off.best_wall_s;
  const bool identical =
      on.run.best_config() == off.run.best_config() &&
      on.run.best_value() == off.run.best_value() &&
      on.run.total_invocations == off.run.total_invocations;

  util::TextTable table;
  table.columns({"Mode", "Wall (best)", "Records", "Dropped", "F_S1",
                 "Best config"},
                {util::Align::Left});
  for (const ModeRun* mode : {&off, &on}) {
    table.add_row({mode->label, util::format("%.3fs", mode->best_wall_s),
                   std::to_string(mode->records),
                   std::to_string(mode->dropped),
                   util::format("%.2f", mode->run.best_value()),
                   mode->run.best_config().to_string()});
  }
  std::cout << table.render();
  std::cout << "\nprofiling overhead: " << util::format("%+.2f%%", delta * 100)
            << " wall-clock (" << on.records << " records)\n";

  bool failed = false;
  if (!identical) {
    failed = true;
    std::cerr << "FAIL: profiled run diverged (best "
              << on.run.best_config().to_string() << " @ "
              << on.run.best_value() << " vs "
              << off.run.best_config().to_string() << " @ "
              << off.run.best_value() << ")\n";
  }
  if (delta > 0.02) {
    failed = true;
    std::cerr << "FAIL: profiling overhead " << util::format("%.2f%%", delta * 100)
              << " exceeds the 2% budget\n";
  }

  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("ablation_profile_overhead");
  json.key("machine").value("gold6148");
  json.key("grid_scale").value(grid_scale);
  json.key("configs").value(space.cardinality());
  json.key("workers").value(workers);
  json.key("reps").value(reps);
  json.key("wall_seconds_off").value(off.best_wall_s);
  json.key("wall_seconds_on").value(on.best_wall_s);
  json.key("overhead_fraction").value(delta);
  json.key("budget_fraction").value(0.02);
  json.key("profile_records").value(on.records);
  json.key("profile_dropped").value(on.dropped);
  json.key("identical_results").value(identical);
  json.key("pass").value(!failed);
  json.end_object();
  bench::write_artifact("BENCH_profile_overhead.json", json.str() + "\n");

  return failed ? 1 : 0;
}

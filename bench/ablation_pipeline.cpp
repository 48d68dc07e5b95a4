// Ablation: pipeline lookahead 1 vs 8.
//
// The deterministic parallel scheduler (core/parallel_evaluator.hpp) runs
// epochs on a persistent worker pool (core::EvalPool) and overlaps
// up to `lookahead` epochs, committing results strictly in logical order.
// At lookahead 1 each epoch waits for the previous one to commit, so one
// straggler idles the whole pool at every epoch boundary; lookahead 8 lets
// workers run ahead past the straggler tails.  This bench builds a
// straggler-heavy scenario (SimOptions::cost_skew makes 1/8th of the
// configurations 8x slower in host time without touching the simulated
// samples), runs the racing strategy at L=1 and L=8 with the same worker
// count, and compares host wall-clock and worker idle fraction.
//
// The technique is Default (no incumbent-dependent pruning), so racing's
// CI eliminations are a pure function of the samples: both lookaheads must
// return the identical best configuration and identical invocation totals,
// and any wall-clock gap is scheduling overhead alone.

#include <chrono>
#include <cstdlib>
#include <iostream>

#include "bench/common.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "simhw/sim_backend.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace rooftune;

struct ModeRun {
  std::string label;
  core::TuningRun run;
  double wall_s = 0.0;
};

core::TunerOptions tuner_options() {
  core::TunerOptions base;
  base.invocations = 3;
  base.iterations = 25;
  auto options = core::technique_options(core::Technique::Default, base);
  options.strategy = core::SearchStrategy::Racing;
  return options;
}

ModeRun run_mode(const std::string& label, const core::SearchSpace& space,
                 const simhw::MachineSpec& machine, double cost_base_s,
                 std::size_t workers, std::size_t lookahead) {
  simhw::SimOptions sim;
  sim.sockets_used = 1;
  sim.cost_skew = 8.0;
  sim.cost_base_s = cost_base_s;
  const auto factory = [&machine, sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
  };

  core::ParallelOptions parallel;
  parallel.workers = workers;
  parallel.deterministic = true;
  parallel.lookahead = lookahead;
  parallel.sched_stats = true;

  core::ParallelEvaluator evaluator(factory, tuner_options(), parallel);
  const auto start = std::chrono::steady_clock::now();
  auto run = evaluator.run(space);
  const auto stop = std::chrono::steady_clock::now();
  ModeRun result{label, std::move(run), 0.0};
  result.wall_s = std::chrono::duration<double>(stop - start).count();
  return result;
}

double idle_fraction(const ModeRun& mode) {
  return mode.run.sched ? mode.run.sched->idle_fraction() : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rooftune;

  const int grid_scale = argc > 1 ? std::atoi(argv[1]) : 4;
  const std::size_t workers =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 8;
  const double cost_base_s = argc > 3 ? std::atof(argv[3]) : 0.0005;

  const auto machine = simhw::machine_by_name("gold6148");
  const auto space = core::dgemm_scaled_space(grid_scale);

  std::cout << "Ablation: pipeline lookahead 1 vs 8, racing strategy\n"
            << "grid scale " << grid_scale << " (" << space.cardinality()
            << " configs), " << workers << " workers, cost_skew 8.0 (1/8 "
            << "stragglers), cost base " << cost_base_s << "s\n\n";

  std::vector<ModeRun> modes;
  modes.push_back(
      run_mode("pipeline L=1", space, machine, cost_base_s, workers, 1));
  modes.push_back(
      run_mode("pipeline L=8", space, machine, cost_base_s, workers, 8));

  util::TextTable table;
  table.columns({"Scheduler", "Wall", "Speedup", "Idle", "Parks",
                 "F_S1", "Best config", "Invocations"},
                {util::Align::Left});
  const double l1_wall = modes.front().wall_s;
  for (const auto& mode : modes) {
    const auto& sched = mode.run.sched;
    table.add_row({mode.label, util::format("%.2fs", mode.wall_s),
                   util::format("%.2fx", l1_wall / mode.wall_s),
                   util::format("%.3f", idle_fraction(mode)),
                   sched ? std::to_string(sched->parks) : "-",
                   util::format("%.2f", mode.run.best_value()),
                   mode.run.best_config().to_string(),
                   std::to_string(mode.run.total_invocations)});
  }
  std::cout << table.render();

  // Default technique => eliminations are incumbent-independent, so every
  // lookahead must agree bit-for-bit on what was evaluated and what won.
  bool identical = true;
  for (const auto& mode : modes) {
    if (mode.run.best_config() != modes.front().run.best_config() ||
        mode.run.best_value() != modes.front().run.best_value() ||
        mode.run.total_invocations != modes.front().run.total_invocations) {
      identical = false;
      std::cerr << "FAIL: " << mode.label << " diverged from "
                << modes.front().label << " (best "
                << mode.run.best_config().to_string() << " @ "
                << mode.run.best_value() << ", "
                << mode.run.total_invocations << " invocations)\n";
    }
  }

  const double speedup_l8 = l1_wall / modes.back().wall_s;
  std::cout << "\npipeline L=8 speedup over L=1: "
            << util::format("%.2fx", speedup_l8) << ", idle fraction "
            << util::format("%.3f", idle_fraction(modes[0])) << " (L=1) -> "
            << util::format("%.3f", idle_fraction(modes[1])) << " (L=8)\n";

  util::JsonWriter json;
  json.begin_object();
  json.key("bench").value("ablation_pipeline");
  json.key("machine").value("gold6148");
  json.key("grid_scale").value(grid_scale);
  json.key("configs").value(space.cardinality());
  json.key("workers").value(workers);
  json.key("cost_skew").value(8.0);
  json.key("cost_base_s").value(cost_base_s);
  json.key("identical_results").value(identical);
  json.key("speedup_l8_vs_l1").value(speedup_l8);
  json.key("modes").begin_array();
  for (const auto& mode : modes) {
    json.begin_object();
    json.key("label").value(mode.label);
    json.key("wall_seconds").value(mode.wall_s);
    json.key("best_gflops").value(mode.run.best_value());
    json.key("best_config").value(mode.run.best_config().to_string());
    json.key("total_invocations").value(mode.run.total_invocations);
    json.key("pruned_configs").value(mode.run.pruned_configs);
    if (mode.run.sched) {
      const auto& s = *mode.run.sched;
      json.key("scheduler").begin_object();
      json.key("mode").value(s.mode);
      json.key("workers").value(s.workers);
      json.key("lookahead").value(s.lookahead);
      json.key("tasks").value(s.tasks);
      json.key("steals").value(s.steals);
      json.key("parks").value(s.parks);
      json.key("idle_fraction").value(s.idle_fraction());
      json.key("commit_wait_ns").value(s.commit_wait_ns);
      json.key("span_ns").value(s.span_ns);
      json.end_object();
    } else {
      json.key("scheduler").null();
    }
    json.end_object();
  }
  json.end_array();
  json.end_object();
  bench::write_artifact("BENCH_pipeline.json", json.str() + "\n");

  if (!identical) return 1;
  return 0;
}

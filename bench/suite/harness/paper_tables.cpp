// paper-tables: the paper's headline experiment on the simulated machines.
// One pass runs Tables VIII-XI (4 machines x S1/S2 x the seven automatic
// techniques, plus the 2695v4 min-count-100 block) and then Table VI's
// TRIAD L3/DRAM sweep with C+I+O, all with the serial Autotuner over the
// reduced 96-configuration space.  No pool, no journal: the evaluator,
// stats and simhw layers do all the host work.

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/autotuner.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "harness/timed.hpp"
#include "harness/workload.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"

namespace rooftune::suite {

namespace {

/// One row of Tables VIII-XI: a technique on one machine, run on one and
/// on two sockets.
struct Row {
  simhw::MachineSpec machine;
  core::Technique technique;
  std::uint64_t min_count;

  /// The rows the paper's claims rest on: C+I+O at min-count 2, except on
  /// the 2695v4, which needs 100 (with 2 it misses by 13.6 %, the paper's
  /// warm-up case).
  [[nodiscard]] bool pinned() const {
    return technique == core::Technique::CIOuter &&
           min_count == (machine.name == "2695v4" ? 100u : 2u);
  }

  [[nodiscard]] std::string key(int sockets) const {
    std::string name = core::technique_name(technique);
    std::replace(name.begin(), name.end(), ' ', '_');
    return machine.name + "/" + name + "/mc" + std::to_string(min_count) + "/S" +
           std::to_string(sockets);
  }
};

core::TuningRun tune(Tracer* tracer, const core::SearchSpace& space,
                     const core::TunerOptions& options, core::Backend& backend) {
  if (tracer == nullptr) return core::Autotuner(space, options).run(backend);
  TimedBackend timed(backend, *tracer, kSimSpans);
  Span span(tracer, "evaluator.run");
  return core::Autotuner(space, options).run(timed);
}

class PaperTables final : public Workload {
 public:
  explicit PaperTables(const RunContext& ctx)
      : seed_(ctx.seed), space_(core::dgemm_reduced_space()) {
    for (const char* name : {"2650v4", "2695v4", "gold6132", "gold6148"}) {
      machines_.push_back(simhw::machine_by_name(name));
      for (const auto technique : core::automatic_techniques()) {
        rows_.push_back({machines_.back(), technique, 2});
      }
    }
    for (const auto technique :
         {core::Technique::CInner, core::Technique::CInnerReverse,
          core::Technique::CIOuter, core::Technique::CIOuterReverse}) {
      rows_.push_back({machines_[1], technique, 100});
    }
  }

  PassOutcome pass(Tracer* tracer) override {
    PassOutcome out;
    struct Result {
      double best[2];
      double time[2];
    };
    std::vector<Result> results;
    for (const auto& row : rows_) {
      const core::TunerOptions options =
          core::technique_options(row.technique, {}, 0, row.min_count);
      Result result{};
      for (int sockets = 1; sockets <= 2; ++sockets) {
        simhw::SimOptions sim;
        sim.sockets_used = sockets;
        sim.seed = seed_;
        simhw::SimDgemmBackend backend(row.machine, sim);
        const core::TuningRun run = tune(tracer, space_, options, backend);
        record_run(out, row.key(sockets), run);
        result.best[sockets - 1] = run.best_value();
        result.time[sockets - 1] = search_time(run);
      }
      results.push_back(result);
    }
    triad_ceilings(tracer, out);

    // The paper's claims: the pinned C+I+O rows find the Default peak within
    // 2 % at a fraction of its search time.  Per seed the claim holds on
    // average over the eight pinned cells (worst mean 1.39 % over seeds
    // 1-600); a single dual-socket cell can settle on the runner-up
    // configuration, 5-7 % down, in about 1 seed in 25, so single cells
    // are only held to 10 %.
    double default_time = 0.0;
    double cio_time = 0.0;
    double worst_gap_pct = 0.0;
    double gap_sum = 0.0;
    int cells = 0;
    std::string worst_cell;
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      if (!rows_[i].pinned()) continue;
      const Result& reference = results[default_row(rows_[i].machine.name)];
      for (int s = 0; s < 2; ++s) {
        const double gap_pct =
            100.0 * std::fabs(results[i].best[s] - reference.best[s]) / reference.best[s];
        if (gap_pct >= worst_gap_pct) worst_cell = rows_[i].key(s + 1);
        worst_gap_pct = std::max(worst_gap_pct, gap_pct);
        gap_sum += gap_pct;
        ++cells;
        default_time += reference.time[s];
        cio_time += results[i].time[s];
      }
    }
    const double mean_gap_pct = gap_sum / cells;
    out.checks.push_back(check("pinned C+I+O rows within 2% of Default on average",
                               mean_gap_pct <= 2.0,
                               "mean gap " + exact_text(mean_gap_pct) + " %"));
    out.checks.push_back(check("every pinned C+I+O row within 10% of Default",
                               worst_gap_pct <= 10.0,
                               worst_cell + " gap " + exact_text(worst_gap_pct) + " %"));
    out.optimum_share = 1.0 - mean_gap_pct / 100.0;
    out.details["speedup_vs_default"] = default_time / cio_time;
    return out;
  }

 private:
  [[nodiscard]] std::size_t default_row(const std::string& machine) const {
    for (std::size_t j = 0; j < rows_.size(); ++j) {
      if (rows_[j].machine.name == machine &&
          rows_[j].technique == core::Technique::Default) {
        return j;
      }
    }
    throw std::logic_error("paper-tables: no Default row for " + machine);
  }

  /// Table VI: per machine and socket count, the TRIAD L3 ceiling is the
  /// best of the full working-set sweep and the DRAM ceiling the best over
  /// working sets of at least 8x the reachable L3 (the rule
  /// roofline::measure_triad_ceilings applies), both with C+I+O at
  /// min-count 10.
  void triad_ceilings(Tracer* tracer, PassOutcome& out) const {
    const core::TunerOptions options =
        core::technique_options(core::Technique::CIOuter, {}, 0, 10);
    const core::SearchSpace full = core::triad_space();
    for (const auto& machine : machines_) {
      for (int sockets = 1; sockets <= 2; ++sockets) {
        simhw::SimOptions sim;
        sim.sockets_used = sockets;
        sim.seed = seed_;
        sim.affinity =
            sockets == 1 ? util::AffinityPolicy::Close : util::AffinityPolicy::Spread;
        simhw::SimTriadBackend backend(machine, sim);
        std::vector<std::int64_t> dram_n;
        for (const std::int64_t n : full.ranges().front().values()) {
          if (24.0 * static_cast<double>(n) >=
              8.0 * static_cast<double>(machine.l3_capacity(sockets).value)) {
            dram_n.push_back(n);
          }
        }
        const core::SearchSpace dram({core::ParameterRange("N", dram_n)});
        const std::string key = "triad/" + machine.name + "/S" + std::to_string(sockets);
        record_run(out, key + "/l3", tune(tracer, full, options, backend));
        record_run(out, key + "/dram", tune(tracer, dram, options, backend));
      }
    }
  }

  std::uint64_t seed_;
  core::SearchSpace space_;
  std::vector<simhw::MachineSpec> machines_;
  std::vector<Row> rows_;
};

}  // namespace

std::unique_ptr<Workload> make_paper_tables(const RunContext& ctx) {
  return std::make_unique<PaperTables>(ctx);
}

}  // namespace rooftune::suite

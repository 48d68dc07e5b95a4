#include "harness/grid6.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "cli/commands.hpp"
#include "core/autotuner.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "harness/timed.hpp"
#include "simhw/dgemm_model.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "telemetry/environment.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/journal.hpp"
#include "trace/profile_export.hpp"
#include "trace/reader.hpp"
#include "util/profiler.hpp"

namespace rooftune::suite {

namespace {

constexpr int kGridScale = 6;

simhw::MachineSpec machine() { return simhw::machine_by_name("gold6148"); }

/// One strategy of the scenario, as its `rooftune dgemm` flags set it.
struct Strategy {
  const char* name;
  core::SearchStrategy strategy = core::SearchStrategy::Exhaustive;
  core::SearchOrder order = core::SearchOrder::Forward;
  std::uint64_t seed_budget = 64;
  std::uint64_t confirm_top = 16;
  std::optional<double> counter_prune = std::nullopt;  ///< margin, when --counter-prune
};

const Strategy kExhaustive{.name = "exhaustive"};
const Strategy kRacing{.name = "racing", .strategy = core::SearchStrategy::Racing};
const Strategy kSurrogate{.name = "surrogate",
                          .strategy = core::SearchStrategy::Surrogate,
                          .seed_budget = 128,
                          .confirm_top = 160};
const Strategy kCounterPrune{.name = "racing-counter-prune",
                             .strategy = core::SearchStrategy::Racing,
                             .order = core::SearchOrder::Reverse,
                             .counter_prune = 0.05};

/// Tuner and simulator options for `rooftune dgemm --machine gold6148
/// --grid-scale 6 --seed N` plus the strategy's flags (cli/commands.cpp).
struct Scenario {
  core::TunerOptions options;
  simhw::SimOptions sim;
};

Scenario scenario(const Strategy& s, std::uint64_t seed) {
  Scenario sc;
  sc.options = core::technique_options(core::Technique::CIOuter, {}, 0, 2);
  sc.options.random_seed = seed;
  sc.options.strategy = s.strategy;
  sc.options.order = s.order;
  sc.options.surrogate_seed_budget = s.seed_budget;
  sc.options.surrogate_confirm_top = s.confirm_top;
  sc.sim.seed = seed;
  sc.sim.grid_scale = kGridScale;
  if (s.counter_prune.has_value()) {
    const simhw::MachineSpec m = machine();
    sc.options.counter_prune = true;
    sc.options.counter_prune_margin = *s.counter_prune;
    sc.options.counter_peak_gflops = m.theoretical_flops(1).value;
    sc.options.counter_dram_gbps = m.theoretical_bandwidth(1).value;
    sc.sim.counter_model = true;
  }
  return sc;
}

core::ParallelOptions parallel(std::size_t workers, std::size_t lookahead,
                               bool sched_stats) {
  core::ParallelOptions p;
  p.workers = workers;
  p.deterministic = true;
  p.lookahead = lookahead;
  p.sched_stats = sched_stats;
  return p;
}

/// ParallelEvaluator over the grid; a traced pass times every worker
/// backend call under the coordinator's span.
core::TuningRun run_parallel(Tracer* tracer, const Scenario& sc,
                             const core::ParallelOptions& p,
                             const core::SearchSpace& space) {
  const simhw::MachineSpec m = machine();
  core::ParallelEvaluator::BackendFactory factory =
      [m, sim = sc.sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(m, sim);
  };
  if (tracer != nullptr) factory = timed_factory(std::move(factory), *tracer, kSimSpans);
  Span span(tracer, "parallel_evaluator.run");
  return core::ParallelEvaluator(std::move(factory), sc.options, p).run(space);
}

/// The strategies are scored on the simulator's noise-free surface: they
/// sample on different schedules (racing's short invocations sit lower on
/// the warm-up ramp), so only the configurations they chose are comparable.
double surface_gflops(const core::Configuration& config) {
  const simhw::DgemmSurface surface(machine(), 1);
  return surface.mean_gflops(config.at("n"), config.at("m"), config.at("k")).value;
}

std::string read_file(Tracer* tracer, const std::string& path) {
  Span span(tracer, "io.read_file");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// ---- grid6-pipeline --------------------------------------------------------

/// Four strategies on nproc-1 EvalPool workers at lookahead 4, with an
/// eighth of the configurations made 8x slower in host time (cost_skew 8
/// over a 100 us base): the stragglers make scheduling visible while the
/// simulated samples, and so every exact field, stay untouched.
class Grid6Pipeline final : public Workload {
 public:
  Grid6Pipeline(const RunContext& ctx, Grid6Reference reference)
      : ctx_(ctx), space_(core::dgemm_scaled_space(kGridScale)),
        reference_(std::move(reference)) {}

  PassOutcome pass(Tracer* tracer) override {
    PassOutcome out;
    const core::ParallelOptions p = parallel(ctx_.pool_workers(), 4, tracer != nullptr);
    const std::vector<const Strategy*> strategies = {&kExhaustive, &kRacing, &kSurrogate,
                                                     &kCounterPrune};
    double share_sum = 0.0;
    std::uint64_t racing_configs = 0, racing_pruned = 0, racing_invocations = 0;
    std::uint64_t skipped = 0;
    double idle_ns = 0.0, worker_ns = 0.0, steals = 0.0, tasks = 0.0;
    for (const Strategy* s : strategies) {
      Scenario sc = scenario(*s, ctx_.seed);
      sc.sim.cost_skew = 8.0;
      sc.sim.cost_base_s = 100e-6;
      const core::TuningRun run = run_parallel(tracer, sc, p, space_);
      record_run(out, s->name, run);

      // Near the optimum the grid is flat to within the measurement noise:
      // over seeds 1-300 strategies settle up to 5.8 % below the true
      // optimum, so the check holds them to 10 %.
      const double share = surface_gflops(run.best_config()) / reference_.surface_gflops;
      const double error_pct = 100.0 * (1.0 - share);
      share_sum += share;
      out.checks.push_back(check(std::string(s->name) + " within 10% of the reference optimum",
                                 error_pct <= 10.0,
                                 run.best_config().to_string() + " is " +
                                     exact_text(error_pct) + " % below " +
                                     reference_.best.to_string()));

      if (s->strategy == core::SearchStrategy::Racing) {
        racing_configs += run.results.size();
        racing_pruned += run.pruned_configs;
        racing_invocations += run.total_invocations;
      }
      if (s->counter_prune.has_value()) {
        for (const auto& r : run.results) skipped += r.invocations.empty() ? 1 : 0;
      }
      if (run.sched.has_value()) {
        idle_ns += static_cast<double>(run.sched->idle_ns);
        worker_ns += static_cast<double>(run.sched->workers) *
                     static_cast<double>(run.sched->span_ns);
        steals += static_cast<double>(run.sched->steals);
        tasks += static_cast<double>(run.sched->tasks);
      }
    }
    out.optimum_share = share_sum / static_cast<double>(strategies.size());

    out.layer["racing.eliminated_share"] =
        static_cast<double>(racing_pruned) / static_cast<double>(racing_configs);
    out.layer["racing.invocations_per_config"] =
        static_cast<double>(racing_invocations) / static_cast<double>(racing_configs);
    out.layer["bottleneck.skipped_configs"] = static_cast<double>(skipped);
    if (tracer != nullptr) {
      out.layer["eval_pool.idle_fraction"] = worker_ns > 0.0 ? idle_ns / worker_ns : 0.0;
      out.layer["eval_pool.steals_per_task"] = tasks > 0.0 ? steals / tasks : 0.0;
      double backend_ns = 0.0, coordinator_ns = 0.0;
      for (const auto& [name, agg] : tracer->aggregates()) {
        if (name.rfind("simhw.", 0) == 0) backend_ns += static_cast<double>(agg.total_ns);
        if (name == "parallel_evaluator.run") {
          coordinator_ns += static_cast<double>(agg.total_ns);
        }
      }
      const double capacity = coordinator_ns * static_cast<double>(ctx_.pool_workers());
      out.layer["parallel_evaluator.backend_busy_fraction"] =
          capacity > 0.0 ? backend_ns / capacity : 0.0;
    }
    return out;
  }

 private:
  RunContext ctx_;
  core::SearchSpace space_;
  Grid6Reference reference_;
};

// ---- grid6-artifacts -------------------------------------------------------

/// Racing and exhaustive C+I+O on nproc-1 workers, each writing what
/// `rooftune dgemm ... --trace J --profile P --export E` writes, through
/// the same library calls.
class Grid6Artifacts final : public Workload {
 public:
  Grid6Artifacts(const RunContext& ctx, std::string dir)
      : ctx_(ctx), dir_(std::move(dir)), space_(core::dgemm_scaled_space(kGridScale)) {}

  PassOutcome pass(Tracer* tracer) override {
    PassOutcome out;
    // Here rather than in set-up, which takes a few microseconds without
    // it: the file-system call would make most of setup_s.
    std::filesystem::create_directories(dir_);
    const Written racing = write_artifacts(tracer, kRacing, out);
    const Written exhaustive = write_artifacts(tracer, kExhaustive, out);
    // Exhaustive C+I+O is the reference optimum racing is scored against.
    out.optimum_share = surface_gflops(racing.best) / surface_gflops(exhaustive.best);
    out.details["artifact_mib"] = (racing.bytes + exhaustive.bytes) / (1024.0 * 1024.0);
    return out;
  }

  /// The last pass's journals and exports equal what the CLI writes for
  /// the same scenario, byte for byte; the exact fields already held every
  /// pass to the first one's sizes and record counts.
  std::vector<Check> verify() override {
    std::vector<Check> checks;
    for (const Strategy* s : {&kRacing, &kExhaustive}) {
      const std::string name = s->name;
      const std::string journal = grid6_artifact_path(dir_, "cli-" + name, "journal");
      const std::string exported = grid6_artifact_path(dir_, "cli-" + name, "export");
      const std::vector<std::string> args = {
          "dgemm",    "--machine", "gold6148", "--grid-scale", std::to_string(kGridScale),
          "--seed",   std::to_string(ctx_.seed), "--strategy", name,
          "--workers", std::to_string(ctx_.pool_workers()), "--trace", journal,
          "--export", exported};
      std::ostringstream out, err;
      const bool ran = cli::run_cli(args, out, err) == 0;
      const auto equals_own = [&](const std::string& cli_path, const char* kind) {
        return ran && read_file(nullptr, cli_path) ==
                          read_file(nullptr, grid6_artifact_path(dir_, name, kind));
      };
      checks.push_back(check(name + " journal equals `rooftune dgemm --trace`'s",
                             equals_own(journal, "journal"), err.str()));
      checks.push_back(check(name + " export equals `rooftune dgemm --export`'s",
                             equals_own(exported, "export"), err.str()));
    }
    return checks;
  }

 private:
  struct Written {
    core::Configuration best;
    double bytes = 0.0;  ///< journal + export
  };

  /// One strategy's run and its three files.
  Written write_artifacts(Tracer* tracer, const Strategy& s, PassOutcome& out) {
    Scenario sc = scenario(s, ctx_.seed);
    telemetry::EnvironmentFingerprint fingerprint;
    {
      Span span(tracer, "telemetry.capture");
      fingerprint = telemetry::EnvironmentFingerprint::capture();
    }
    trace::JournalOptions journal_options;
    journal_options.path = grid6_artifact_path(dir_, s.name, "journal");
    journal_options.provenance = fingerprint;
    trace::TraceJournal journal(journal_options);
    std::optional<TimedSink> timed_sink;
    if (tracer != nullptr) timed_sink.emplace(journal, *tracer);
    sc.options.trace = timed_sink ? static_cast<core::TraceSink*>(&*timed_sink)
                                  : static_cast<core::TraceSink*>(&journal);
    sc.options.trace_path = journal_options.path;
    sc.options.env_fingerprint = fingerprint.stable_hash();

    util::Profiler& profiler = util::Profiler::instance();
    profiler.enable();
    profiler.set_thread_name("main");
    const core::TuningRun run =
        run_parallel(tracer, sc, parallel(ctx_.pool_workers(), 1, false), space_);
    record_run(out, s.name, run);

    // Written in the order and with the metadata `rooftune dgemm` uses
    // (cli/commands.cpp: finish_trace, finish_profile, maybe_export).
    {
      Span span(tracer, "journal.flush");
      journal.begin_run({"dgemm", "GFLOP/s", core::to_string(sc.options.strategy)});
      trace::RunSummary summary;
      summary.configs = run.results.size();
      summary.pruned = run.pruned_configs;
      summary.invocations = run.total_invocations;
      summary.iterations = run.total_iterations;
      if (run.best_index.has_value()) summary.best = run.best_value();
      journal.finish_run(summary);
      journal.flush();
    }
    {
      Span span(tracer, "profile_export.write");
      const util::ProfileSnapshot snapshot = profiler.snapshot();
      profiler.disable();
      trace::ProfileMetadata meta;
      meta.benchmark = "dgemm";
      meta.strategy = core::to_string(sc.options.strategy);
      meta.have_sums = true;
      meta.kernel_s_sum = run.total_kernel_time.value;
      meta.setup_s_sum = run.total_setup_time.value;
      trace::write_profile_file(grid6_artifact_path(dir_, s.name, "profile"), snapshot,
                                std::move(meta));
    }
    const std::string export_path = grid6_artifact_path(dir_, s.name, "export");
    {
      Span span(tracer, "export.write");
      trace::write_export_file(export_path, trace::make_export(run, space_, "dgemm",
                                                               "GFLOP/s", sc.options,
                                                               fingerprint));
    }

    const auto journal_bytes = std::filesystem::file_size(journal_options.path);
    const auto export_bytes = std::filesystem::file_size(export_path);
    out.exact.emplace_back(std::string(s.name) + ".journal",
                           std::to_string(journal_bytes) + " B, " +
                               std::to_string(journal.event_count()) + " records");
    out.exact.emplace_back(std::string(s.name) + ".export",
                           std::to_string(export_bytes) + " B");
    return {run.best_config(), static_cast<double>(journal_bytes + export_bytes)};
  }

  RunContext ctx_;
  std::string dir_;
  core::SearchSpace space_;
};

// ---- artifact-readback -----------------------------------------------------

/// The trace layer as a reader: set-up writes one grid6-artifacts pass,
/// every pass reads it back — journals through the reader and analyzer,
/// exports through the parser and the replay, the racing journal through
/// export_from_journal, and the racing profile through its parser and
/// report.
class ArtifactReadback final : public Workload {
 public:
  explicit ArtifactReadback(const RunContext& ctx)
      : dir_(readback_dir(ctx)), space_(core::dgemm_scaled_space(kGridScale)) {
    Grid6Artifacts(ctx, dir_).pass(nullptr);
  }

  PassOutcome pass(Tracer* tracer) override {
    PassOutcome out;
    double bytes_read = 0.0;
    std::vector<core::Configuration> optima;  // racing's, then exhaustive's
    for (const Strategy* s : {&kRacing, &kExhaustive}) {
      const std::string name = s->name;
      const std::string journal_text =
          read_file(tracer, grid6_artifact_path(dir_, name, "journal"));
      trace::Journal journal;
      {
        Span span(tracer, "reader.read_journal");
        journal = trace::read_journal(journal_text);
      }
      trace::TraceAnalysis analysis;
      std::string report;
      {
        Span span(tracer, "analyze.analyze");
        analysis = trace::analyze(journal);
      }
      {
        Span span(tracer, "analyze.render_report");
        report = trace::render_report(journal, analysis);
      }
      out.checks.push_back(check(name + " journal analysis consistent",
                                 analysis.inconsistencies.empty(),
                                 analysis.inconsistencies.empty()
                                     ? ""
                                     : analysis.inconsistencies.front()));
      out.exact.emplace_back(name + ".report", std::to_string(report.size()) + " B");
      if (reports_.size() < 2) {
        reports_.push_back(std::move(report));
      } else {
        out.checks.push_back(check(name + " report identical to pass 1",
                                   report == reports_[s == &kRacing ? 0 : 1]));
      }

      const std::string export_text =
          read_file(tracer, grid6_artifact_path(dir_, name, "export"));
      trace::ExportDocument doc;
      {
        Span span(tracer, "export.parse");
        doc = trace::parse_export(export_text);
      }
      trace::ReplayOutcome replay;
      {
        Span span(tracer, "export.replay");
        replay = trace::replay_export(doc);
      }
      out.checks.push_back(check(name + " export replays with 0 mismatches",
                                 replay.ok(), replay.first_mismatch));
      // Summed per document in visit order, like search_time() and
      // invocations_to_optimum() sum the live run, so what is read back
      // equals what grid6-artifacts wrote bit for bit.
      const std::size_t best = doc.best_index.value();
      double time_s = 0.0;
      for (std::size_t i = 0; i < doc.results.size(); ++i) {
        const auto& result = doc.results[i];
        out.invocations += result.invocations.size();
        out.iterations += result.iterations;
        for (const auto& inv : result.invocations) time_s += inv.wall_s;
        if (i <= best) out.invocations_to_optimum += result.invocations.size();
      }
      out.search_time_s += time_s;
      optima.push_back(doc.results[best].config);
      out.exact.emplace_back(name + ".replayed_configs", std::to_string(replay.configs));
      bytes_read += static_cast<double>(journal_text.size() + export_text.size());

      if (s == &kRacing) {
        trace::ExportDocument rebuilt;
        {
          Span span(tracer, "export.from_journal");
          rebuilt = trace::export_from_journal(journal, space_);
        }
        const bool same_best =
            rebuilt.best_index.has_value() && doc.best_index.has_value() &&
            rebuilt.results[*rebuilt.best_index].config ==
                doc.results[*doc.best_index].config &&
            rebuilt.results.size() == doc.results.size();
        out.checks.push_back(check("racing journal rebuilds the export's optimum",
                                   same_best));

        const std::string profile_text =
            read_file(tracer, grid6_artifact_path(dir_, name, "profile"));
        trace::ProfileDocument profile;
        {
          Span span(tracer, "profile_export.parse");
          profile = trace::parse_profile(profile_text);
        }
        std::string profile_report;
        {
          Span span(tracer, "profile_export.render_report");
          profile_report = trace::render_profile_report(profile);
        }
        out.checks.push_back(check("racing profile parses with records",
                                   profile.snapshot.total_records() > 0 &&
                                       !profile_report.empty()));
        bytes_read += static_cast<double>(profile_text.size());
      }
    }
    out.optimum_share = surface_gflops(optima[0]) / surface_gflops(optima[1]);
    out.details["read_mib"] = bytes_read / (1024.0 * 1024.0);
    return out;
  }

 private:
  std::string dir_;
  core::SearchSpace space_;
  std::vector<std::string> reports_;  ///< pass 1's racing and exhaustive reports
};

}  // namespace

Grid6Reference grid6_reference(std::uint64_t seed) {
  const core::TuningRun run =
      run_parallel(nullptr, scenario(kExhaustive, seed), parallel(1, 1, false),
                   core::dgemm_scaled_space(kGridScale));
  return {run.best_config(), surface_gflops(run.best_config())};
}

std::string grid6_artifact_path(const std::string& dir, const std::string& strategy,
                                const std::string& kind) {
  const char* suffix = kind == "journal" ? ".jsonl" : ".json";
  return (std::filesystem::path(dir) / (strategy + "." + kind + suffix)).string();
}

std::string readback_dir(const RunContext& ctx) {
  return (std::filesystem::path(ctx.workdir) / "readback").string();
}

std::unique_ptr<Workload> make_grid6_pipeline(const RunContext& ctx,
                                              Grid6Reference reference) {
  return std::make_unique<Grid6Pipeline>(ctx, std::move(reference));
}

std::unique_ptr<Workload> make_grid6_pipeline(const RunContext& ctx) {
  return make_grid6_pipeline(ctx, grid6_reference(ctx.seed));
}

std::unique_ptr<Workload> make_grid6_artifacts(const RunContext& ctx) {
  return std::make_unique<Grid6Artifacts>(
      ctx, (std::filesystem::path(ctx.workdir) / "artifacts").string());
}

std::unique_ptr<Workload> make_artifact_readback(const RunContext& ctx) {
  return std::make_unique<ArtifactReadback>(ctx);
}

}  // namespace rooftune::suite

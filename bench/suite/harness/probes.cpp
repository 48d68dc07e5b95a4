#include "harness/probes.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <mutex>
#include <thread>
#include <vector>

#include "blas/blas.hpp"
#include "blas/matrix.hpp"
#include "blas/microkernel.hpp"
#include "core/autotuner.hpp"
#include "core/eval_pool.hpp"
#include "core/evaluator.hpp"
#include "core/native_backend.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/spaces.hpp"
#include "core/surrogate.hpp"
#include "core/techniques.hpp"
#include "harness/timed.hpp"
#include "simhw/dgemm_model.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "stats/student_t.hpp"
#include "stats/welford.hpp"
#include "stream/stream.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/journal.hpp"
#include "trace/profile_export.hpp"
#include "trace/reader.hpp"
#include "util/json_parse.hpp"
#include "util/profiler.hpp"
#include "util/rng.hpp"

namespace rooftune::suite {

namespace {

using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median wall seconds of `reps` calls of `fn`.
template <typename Fn>
double median_seconds(int reps, Fn&& fn) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    times.push_back(seconds_since(start));
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Keeps a computed value observable so the timed work cannot be dropped.
void keep(double value) {
  static volatile double sink = 0.0;
  sink = sink + value;
}

// ---- blas, stream, native_backend ------------------------------------------

/// Best-of-`reps` GFLOP/s of an n^3 blas::dgemm after one warm-up call.
/// The product's first rows must match detail::dgemm_naive.
double dgemm_gflops(std::int64_t n, int reps, std::uint64_t seed, const std::string& what,
                    std::vector<Check>& checks) {
  const auto count = static_cast<std::size_t>(n * n);
  std::vector<double> a(count), b(count), c(count);
  blas::fill_random(a.data(), n, n, n, util::hash_seed(seed, 1));
  blas::fill_random(b.data(), n, n, n, util::hash_seed(seed, 2));
  const auto call = [&] {
    blas::dgemm(blas::Layout::RowMajor, blas::Trans::NoTrans, blas::Trans::NoTrans, n,
                n, n, 1.0, a.data(), n, b.data(), n, 0.0, c.data(), n);
  };
  call();
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    call();
    best = std::min(best, seconds_since(start));
  }

  constexpr std::int64_t kRows = 16;  // the naive triple loop is too slow for all of C
  std::vector<double> ref(static_cast<std::size_t>(kRows * n), 0.0);
  blas::detail::dgemm_naive(blas::Trans::NoTrans, blas::Trans::NoTrans, kRows, n, n, 1.0,
                            a.data(), n, b.data(), n, 0.0, ref.data(), n);
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) worst = std::max(worst, std::fabs(c[i] - ref[i]));
  // Entries lie in [-1, 1), so each dot product of length n carries at most
  // ~n ulp of reordering error.
  checks.push_back(check(what + " matches dgemm_naive", worst <= 1e-13 * static_cast<double>(n),
                         "max error " + exact_text(worst)));
  return blas::dgemm_flops(n, n, n).value / best * 1e-9;
}

void probe_blas(const RunContext& ctx, Metrics& out, std::vector<Check>& checks) {
  out["blas.dgemm_gflops_2048"] = dgemm_gflops(2048, 3, ctx.seed, "dgemm 2048", checks);
  const auto supported = blas::detail::supported_kernel_plans();
  for (const char* name : {"scalar", "avx2", "avx512"}) {
    const blas::detail::KernelPlan* plan = blas::detail::kernel_plan_by_name(name);
    double rate = 0.0;  // the CPU cannot run this plan
    if (plan != nullptr &&
        std::find(supported.begin(), supported.end(), plan) != supported.end()) {
      blas::detail::force_kernel_plan(plan);
      rate = dgemm_gflops(1024, 2, ctx.seed, std::string("dgemm 1024 ") + name, checks);
    }
    out[std::string("blas.plan_gflops_") + name] = rate;
  }
  blas::detail::force_kernel_plan(nullptr);
}

/// TRIAD GB/s per regime: the median of single timed passes after a
/// warm-up pass; the DRAM regime also times its first-touch initialization.
/// Every regime's vectors must then verify.
void probe_stream(const RunContext& ctx, Metrics& out, std::vector<Check>& checks) {
  constexpr double kGamma = 3.0;
  for (const auto& regime : triad_regimes(ctx.host)) {
    const bool dram = std::string(regime.name) == "dram";
    const double bytes = 24.0 * static_cast<double>(regime.n);
    util::WorkspaceArena arena;
    const auto start = Clock::now();
    stream::StreamArrays arrays(regime.n, arena);
    if (dram) out["stream.init_gbps_dram"] = bytes / seconds_since(start) * 1e-9;
    std::int64_t runs = 0;
    for (const auto policy : {stream::StorePolicy::Regular, stream::StorePolicy::Streaming}) {
      if (policy == stream::StorePolicy::Streaming && !dram) continue;
      arrays.run(stream::Kernel::Triad, kGamma, policy);
      const int reps = dram ? 9 : 201;
      const double seconds =
          median_seconds(reps, [&] { arrays.run(stream::Kernel::Triad, kGamma, policy); });
      runs += 1 + reps;
      const std::string suffix = policy == stream::StorePolicy::Streaming ? "_nt" : "";
      out["stream.triad_gbps_" + std::string(regime.name) + suffix] =
          bytes / seconds * 1e-9;
    }
    const double error = arrays.verify(stream::Kernel::Triad, runs, kGamma);
    checks.push_back(check(std::string("stream triad verify ") + regime.name, error == 0.0,
                           "max error " + exact_text(error)));
  }
}

/// The native DGEMM backend over n in {500,1000,2000} x m in {512,1024,2048}
/// x k in {128,256,512}, one invocation of two iterations per shape: the
/// workspace arena's hit rate and reservation over the sweep, and the
/// median shape's best rate over its roofline bound min(peak, DRAM GB/s x
/// OI), with the sweep's best rate as the peak and the OI the backend's
/// compulsory-traffic 2nmk / 8(nk + km + nm).  Runs after probe_stream.
void probe_native_backend(Metrics& out) {
  core::NativeDgemmBackend backend;
  std::uint64_t invocation = 0;
  std::vector<std::pair<double, double>> rates;  // GFLOP/s, OI
  for (const std::int64_t n : {500, 1000, 2000}) {
    for (const std::int64_t m : {512, 1024, 2048}) {
      for (const std::int64_t k : {128, 256, 512}) {
        const core::Configuration config = core::dgemm_config(n, m, k);
        backend.begin_invocation(config, invocation++);
        const double first = backend.run_iteration().value;
        const double rate = std::max(first, backend.run_iteration().value);
        backend.end_invocation();
        rates.emplace_back(rate, backend.analytic_intensity(config).value_or(0.0));
      }
    }
  }
  const util::ArenaStats arena = backend.arena_stats().value_or(util::ArenaStats{});
  out["workspace_arena.hit_rate"] =
      arena.leases > 0 ? static_cast<double>(arena.slab_hits) /
                             static_cast<double>(arena.leases)
                       : 0.0;
  out["workspace_arena.reserved_mib"] =
      static_cast<double>(arena.bytes_reserved) / (1024.0 * 1024.0);
  double peak = 0.0;
  for (const auto& [rate, oi] : rates) peak = std::max(peak, rate);
  std::vector<double> fractions;
  for (const auto& [rate, oi] : rates) {
    fractions.push_back(rate / std::min(peak, out.at("stream.triad_gbps_dram") * oi));
  }
  std::sort(fractions.begin(), fractions.end());
  out["blas.roofline_fraction_median"] = fractions[fractions.size() / 2];

  const core::Configuration config = core::dgemm_config(1000, 1024, 256);
  out["native_backend.invocation_setup_ms"] = 1e3 * median_seconds(5, [&] {
    backend.begin_invocation(config, invocation++);
    backend.end_invocation();
  });
}

// ---- simhw, evaluator, stats, search_space, surrogate -----------------------

void probe_simhw(const RunContext& ctx, Metrics& out) {
  simhw::SimOptions sim;
  sim.seed = ctx.seed;
  simhw::SimDgemmBackend backend(simhw::machine_by_name("gold6148"), sim);
  const core::Configuration config = core::dgemm_config(4000, 724, 128);
  constexpr int kInvocations = 4000;
  auto start = Clock::now();
  for (int i = 0; i < kInvocations; ++i) {
    backend.begin_invocation(config, static_cast<std::uint64_t>(i));
    backend.end_invocation();
  }
  out["simhw.begin_invocation_ns"] = seconds_since(start) * 1e9 / kInvocations;

  constexpr int kIterations = 200000;
  backend.begin_invocation(config, 0);
  start = Clock::now();
  double sum = 0.0;
  for (int i = 0; i < kIterations; ++i) sum += backend.run_iteration().value;
  out["simhw.iteration_ns"] = seconds_since(start) * 1e9 / kIterations;
  backend.end_invocation();
  keep(sum);
}

/// Constant samples at no cost on a clock that never moves: what remains of
/// a run_configuration is the evaluator's own work.
class ZeroCostBackend final : public core::Backend {
 public:
  void begin_invocation(const core::Configuration&, std::uint64_t) override {}
  core::Sample run_iteration() override { return {1.0, util::Seconds{0.0}}; }
  void end_invocation() override {}
  [[nodiscard]] const util::Clock& clock() const override { return clock_; }
  [[nodiscard]] std::string metric_name() const override { return "units/s"; }

 private:
  util::VirtualClock clock_;
};

void probe_evaluator(const RunContext& ctx, Metrics& out) {
  {
    ZeroCostBackend backend;
    core::TunerOptions base;
    base.invocations = 10;
    base.iterations = 20;
    const core::TunerOptions options = core::technique_options(core::Technique::Default, base);
    constexpr int kConfigs = 400;
    const auto start = Clock::now();
    for (int i = 0; i < kConfigs; ++i) {
      keep(core::run_configuration(backend, core::dgemm_config(i + 1, 1, 1), options,
                                   std::nullopt)
               .value());
    }
    out["evaluator.mock_ns_per_invocation"] =
        seconds_since(start) * 1e9 / (kConfigs * base.invocations);
  }
  {
    // The serial C+I+O sweep of paper-tables' first pinned row: evaluator
    // self time (its span minus the backend spans inside it) per iteration.
    Tracer tracer;
    simhw::SimOptions sim;
    sim.seed = ctx.seed;
    simhw::SimDgemmBackend backend(simhw::machine_by_name("2650v4"), sim);
    TimedBackend timed(backend, tracer, kSimSpans);
    core::TuningRun run;
    {
      Span span(&tracer, "evaluator.run");
      run = core::Autotuner(core::dgemm_reduced_space(),
                            core::technique_options(core::Technique::CIOuter))
                .run(timed);
    }
    out["evaluator.overhead_ns_per_iteration"] =
        static_cast<double>(tracer.aggregates().at("evaluator.run").self_ns) /
        static_cast<double>(run.total_iterations);
  }
}

void probe_stats(const RunContext& ctx, Metrics& out) {
  util::Xoshiro256 rng(ctx.seed);
  std::vector<double> xs(4096);
  for (double& x : xs) x = rng.uniform();
  constexpr int kPushes = 1 << 21;
  stats::OnlineMoments moments;
  auto start = Clock::now();
  for (int i = 0; i < kPushes; ++i) moments.add(xs[static_cast<std::size_t>(i) & 4095]);
  out["stats.welford_push_ns"] = seconds_since(start) * 1e9 / kPushes;
  keep(moments.mean());

  constexpr int kCalls = 20000;
  double sum = 0.0;
  start = Clock::now();
  for (int i = 0; i < kCalls; ++i) {
    sum += stats::student_t_two_sided_critical(0.99, 1.0 + (i % 1000));
  }
  out["stats.t_critical_ns"] = seconds_since(start) * 1e9 / kCalls;
  keep(sum);
}

void probe_search(const RunContext& ctx, Metrics& out) {
  const core::SearchSpace space = core::dgemm_scaled_space(6);
  const std::uint64_t cardinality = space.cartesian_cardinality();
  constexpr int kSweeps = 5;
  auto start = Clock::now();
  std::int64_t sum = 0;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (std::uint64_t i = 0; i < cardinality; ++i) sum += space.config_at(i).at("k");
  }
  out["search_space.config_at_ns"] =
      seconds_since(start) * 1e9 / static_cast<double>(kSweeps * cardinality);
  keep(static_cast<double>(sum));

  std::vector<std::uint64_t> seeds;
  out["search_space.lhs_ms"] =
      1e3 * median_seconds(5, [&] { seeds = space.latin_hypercube_indices(128, ctx.seed); });

  // The surrogate fitted on that seed batch with the simulator's noise-free
  // gold6148 rates as targets.
  const simhw::DgemmSurface surface(simhw::machine_by_name("gold6148"), 1);
  std::vector<double> values;
  for (const std::uint64_t index : seeds) {
    const core::Configuration c = space.config_at(index);
    values.push_back(surface.mean_gflops(c.at("n"), c.at("m"), c.at("k")).value);
  }
  std::optional<core::SurrogateModel> model;
  out["surrogate.fit_ms"] = 1e3 * median_seconds(5, [&] {
    model = core::SurrogateModel::fit(space, seeds, values);
  });
  out["surrogate.train_r2"] = model->train_r2();
  start = Clock::now();
  double predicted = 0.0;
  for (std::uint64_t i = 0; i < cardinality; ++i) predicted += model->predict(space, i);
  out["surrogate.predict_ns"] = seconds_since(start) * 1e9 / static_cast<double>(cardinality);
  keep(predicted);
}

// ---- eval_pool, parallel_evaluator -----------------------------------------

/// Submit one no-op task and wait for it, repeatedly: the dispatch latency
/// of a parked pool.
void probe_eval_pool(const RunContext& ctx, Metrics& out) {
  core::EvalPool pool({ctx.pool_workers(), false});
  std::atomic<std::uint64_t> done{0};
  const auto roundtrip = [&](std::uint64_t expected) {
    pool.submit([&done](std::size_t) { done.fetch_add(1, std::memory_order_release); });
    while (done.load(std::memory_order_acquire) != expected) std::this_thread::yield();
  };
  std::uint64_t n = 0;
  for (int i = 0; i < 100; ++i) roundtrip(++n);
  constexpr int kTasks = 2000;
  const auto start = Clock::now();
  for (int i = 0; i < kTasks; ++i) roundtrip(++n);
  out["eval_pool.task_roundtrip_ns"] = seconds_since(start) * 1e9 / kTasks;
}

/// grid6-pipeline's exhaustive strategy on the smaller grid-3 space, once
/// on one worker and once on the pool.
void probe_parallel_evaluator(const RunContext& ctx, Metrics& out) {
  const simhw::MachineSpec machine = simhw::machine_by_name("gold6148");
  simhw::SimOptions sim;
  sim.seed = ctx.seed;
  sim.cost_skew = 8.0;
  sim.cost_base_s = 100e-6;
  const core::ParallelEvaluator::BackendFactory factory =
      [machine, sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
  };
  core::TunerOptions options = core::technique_options(core::Technique::CIOuter);
  options.random_seed = ctx.seed;
  const core::SearchSpace space = core::dgemm_scaled_space(3);
  const auto timed_run = [&](std::size_t workers, core::TuningRun& run) {
    core::ParallelOptions p;
    p.workers = workers;
    p.deterministic = true;
    p.lookahead = 4;
    p.sched_stats = true;
    const auto start = Clock::now();
    run = core::ParallelEvaluator(factory, options, p).run(space);
    return seconds_since(start);
  };
  core::TuningRun serial, pooled;
  const double serial_s = timed_run(1, serial);
  const double pooled_s = timed_run(ctx.pool_workers(), pooled);
  out["parallel_evaluator.speedup_vs_1_worker"] = serial_s / pooled_s;
  out["parallel_evaluator.commit_wait_ns_per_task"] =
      pooled.sched && pooled.sched->tasks > 0
          ? static_cast<double>(pooled.sched->commit_wait_ns) /
                static_cast<double>(pooled.sched->tasks)
          : 0.0;
}

// ---- trace layer: journal, export, reader, analyze, profiles, json ---------

/// Keeps every event a run emits, so the journal can be timed on its own.
class RecordingSink final : public core::TraceSink {
 public:
  void emit(const core::TraceEvent& event) override {
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(event);
  }
  [[nodiscard]] const std::vector<core::TraceEvent>& events() const { return events_; }

 private:
  std::mutex mutex_;
  std::vector<core::TraceEvent> events_;
};

/// Racing C+I+O on the grid-3 space over the pool, with the self-profiler
/// on; its events, run, export and profile feed every trace-layer probe.
void probe_trace(const RunContext& ctx, Metrics& out) {
  const simhw::MachineSpec machine = simhw::machine_by_name("gold6148");
  simhw::SimOptions sim;
  sim.seed = ctx.seed;
  const core::SearchSpace space = core::dgemm_scaled_space(3);
  core::TunerOptions options = core::technique_options(core::Technique::CIOuter);
  options.random_seed = ctx.seed;
  options.strategy = core::SearchStrategy::Racing;
  RecordingSink recorder;
  options.trace = &recorder;
  core::ParallelOptions p;
  p.workers = ctx.pool_workers();
  p.deterministic = true;

  util::Profiler& profiler = util::Profiler::instance();
  profiler.enable();
  const auto start = Clock::now();
  const core::TuningRun run =
      core::ParallelEvaluator(
          [machine, sim]() -> std::unique_ptr<core::Backend> {
            return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
          },
          options, p)
          .run(space);
  const double run_s = seconds_since(start);
  const util::ProfileSnapshot snapshot = profiler.snapshot();
  profiler.disable();
  options.trace = nullptr;
  out["profiler.overhead_fraction"] = static_cast<double>(snapshot.total_records()) *
                                      snapshot.overhead_ns_per_record / (run_s * 1e9);

  const auto& events = recorder.events();
  const double records = static_cast<double>(events.size());
  out["journal.emit_ns_per_record"] = median_seconds(3, [&] {
    trace::TraceJournal journal;
    for (const auto& event : events) journal.emit(event);
  }) * 1e9 / records;

  trace::JournalOptions journal_options;
  journal_options.path =
      (std::filesystem::path(ctx.workdir) / "probe.journal.jsonl").string();
  trace::TraceJournal journal(journal_options);
  for (const auto& event : events) journal.emit(event);
  journal.begin_run({"dgemm", "GFLOP/s", core::to_string(options.strategy)});
  trace::RunSummary summary;
  summary.configs = run.results.size();
  summary.pruned = run.pruned_configs;
  summary.invocations = run.total_invocations;
  summary.iterations = run.total_iterations;
  summary.best = run.best_value();
  journal.finish_run(summary);
  out["journal.flush_ms"] = 1e3 * median_seconds(3, [&] { journal.flush(); });
  const std::string journal_text = journal.str();
  out["journal.bytes_per_record"] = static_cast<double>(journal_text.size()) / records;

  const double journal_mb = static_cast<double>(journal_text.size()) * 1e-6;
  trace::Journal parsed;
  out["reader.read_mb_s"] =
      journal_mb / median_seconds(3, [&] { parsed = trace::read_journal(journal_text); });
  out["analyze.report_ms"] = 1e3 * median_seconds(3, [&] {
    keep(static_cast<double>(
        trace::render_report(parsed, trace::analyze(parsed)).size()));
  });
  out["export.from_journal_ms"] = 1e3 * median_seconds(3, [&] {
    keep(static_cast<double>(trace::export_from_journal(parsed, space).results.size()));
  });

  const trace::ExportDocument doc =
      trace::make_export(run, space, "dgemm", "GFLOP/s", options, std::nullopt);
  std::string export_text;
  const double write_s = median_seconds(3, [&] { export_text = trace::write_export(doc); });
  const double export_mb = static_cast<double>(export_text.size()) * 1e-6;
  out["export.write_mb_s"] = export_mb / write_s;
  trace::ExportDocument reparsed;
  out["export.parse_mb_s"] =
      export_mb / median_seconds(3, [&] { reparsed = trace::parse_export(export_text); });
  out["export.replay_ms"] = 1e3 * median_seconds(3, [&] {
    keep(static_cast<double>(trace::replay_export(reparsed).configs));
  });
  out["json_parse.parse_mb_s"] = export_mb / median_seconds(3, [&] {
    keep(static_cast<double>(util::parse_json(export_text).size()));
  });

  trace::ProfileMetadata meta;
  meta.benchmark = "dgemm";
  meta.strategy = core::to_string(options.strategy);
  std::string profile_text;
  out["profile_export.write_ms"] = 1e3 * median_seconds(3, [&] {
    profile_text = trace::write_profile_json(snapshot, meta);
  });
  out["profile_export.parse_ms"] = 1e3 * median_seconds(3, [&] {
    keep(static_cast<double>(trace::parse_profile(profile_text).snapshot.total_records()));
  });
}

}  // namespace

std::map<std::string, double> run_probes(const RunContext& ctx, std::vector<Check>& checks) {
  Metrics out;
  probe_blas(ctx, out, checks);
  probe_stream(ctx, out, checks);
  probe_native_backend(out);
  probe_simhw(ctx, out);
  probe_evaluator(ctx, out);
  probe_stats(ctx, out);
  probe_search(ctx, out);
  probe_eval_pool(ctx, out);
  probe_parallel_evaluator(ctx, out);
  probe_trace(ctx, out);
  return out;
}

}  // namespace rooftune::suite

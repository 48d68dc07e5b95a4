#include "cli/commands.hpp"

#include <algorithm>
#include <fstream>
#include <memory>
#include <ostream>
#include <span>

#include "cli/args.hpp"
#include "cli/kernels.hpp"
#include "core/autotuner.hpp"
#include "core/native_backend.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/report.hpp"
#include "core/session.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "roofline/advisor.hpp"
#include "roofline/builder.hpp"
#include "roofline/plot.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "stream/stream.hpp"
#include "telemetry/environment.hpp"
#include "telemetry/report.hpp"
#include "telemetry/sampler.hpp"
#include "telemetry/sidecar.hpp"
#include "blas/microkernel.hpp"
#include "trace/analyze.hpp"
#include "trace/export.hpp"
#include "trace/journal.hpp"
#include "trace/profile_export.hpp"
#include "trace/reader.hpp"
#include "util/profiler.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rooftune::cli {

namespace {

/// What every tuning command reads (core::TunerOptions via
/// tuner_options_from): the search schedule and its stop conditions.
void add_tuner_options(ArgParser& parser) {
  parser.add_option("timeout", "per-invocation kernel-time budget in seconds (default 10)", "t");
  parser.add_option("invocations", "outer-loop invocation cap (default 10)");
  parser.add_option("iterations", "inner-loop iteration cap (default 200)");
  parser.add_option("technique",
                    "default|single|confidence|c+i|c+i+r|c+i+o|c+i+o+r (default c+i+o)");
  parser.add_option("strategy",
                    "evaluation schedule: exhaustive (one config at a time, default), "
                    "racing (interleaved CI elimination, see docs/racing.md) or "
                    "surrogate (model-guided seed/fit/prune/confirm, see "
                    "docs/search-strategies.md)");
  parser.add_option("racing-min",
                    "invocations a config must have before racing may eliminate it "
                    "(default 3)");
  parser.add_option("seed-budget",
                    "surrogate: configurations in the Latin-hypercube seed batch "
                    "(default 64)");
  parser.add_option("confirm-top",
                    "surrogate: predicted-best configurations raced in the confirm "
                    "phase (default 16)");
  parser.add_option("min-count",
                    "minimum iterations before upper-bound pruning (default 2; "
                    "roofline and advise: 10)");
  parser.add_option("order", "search order override: forward|reverse|random");
  parser.add_option("seed", "noise/search seed (default 2021)");
}

void add_machine_options(ArgParser& parser) {
  parser.add_option("machine", "simulated machine name (see 'rooftune machines')");
  parser.add_flag("native", "run on the host hardware instead of a simulated machine");
}

void add_custom_machine_option(ArgParser& parser) {
  parser.add_option("custom-machine",
                    "hardware spec of the host for --native runs: "
                    "name:freqGHz:cores:sockets:avx2|avx512:units:l3:dram_MTs:channels");
}

void add_huge_pages_option(ArgParser& parser) {
  parser.add_flag("huge-pages",
                  "--native: back arena slabs with transparent huge pages "
                  "(madvise(MADV_HUGEPAGE); see docs/performance.md)");
}

/// What sim_options_from reads.
void add_sim_options(ArgParser& parser) {
  parser.add_option("sockets", "socket count for the simulated machine (default 1)");
  parser.add_option("arena",
                    "workspace-arena slab reuse across invocations: on|off "
                    "(default on; off reproduces per-invocation allocation)");
  parser.add_option("setup-overhead",
                    "simulated cost in seconds of materializing a fresh working "
                    "set (allocation + page faults); default 0");
  parser.add_option("thermal-tau",
                    "simulated thermal time constant in seconds: frequency "
                    "decays toward the throttle floor with this tau "
                    "(0 = no drift; docs/observability.md)");
  parser.add_option("throttle-factor",
                    "sustained-frequency floor as a fraction of base clock "
                    "under --thermal-tau (default 1.0 = no throttling)");
  parser.add_option("pkg-power",
                    "simulated package power draw in watts (synthetic RAPL "
                    "energy for telemetry spans); default 0");
  parser.add_option("dram-power",
                    "simulated DRAM power draw in watts; default 0");
  parser.add_option("cost-skew",
                    "simulated host-cost multiplier for straggler "
                    "configurations (a fixed 1-in-8 subset sleeps this many "
                    "times longer per invocation; measured results are "
                    "unchanged — only host wall-clock varies)");
  parser.add_option("cost-base",
                    "per-invocation host cost in seconds that --cost-skew "
                    "scales (default 0.001)");
}

void add_counter_prune_options(ArgParser& parser) {
  parser.add_optional_value(
      "counter-prune",
      "abandon a configuration after its first invocations when its "
      "hardware-counter roofline bound cannot beat the incumbent; the "
      "optional value is the safety margin (default 0.25; "
      "docs/search-strategies.md).  Simulated machines derive the ceilings "
      "from the machine model; --native needs --custom-machine and "
      "--perf-counters");
  parser.add_option("counter-window",
                    "counter-prune: invocations consulted before the policy "
                    "disarms for a configuration (default 2)");
  parser.add_flag("sim-counters",
                  "simulated machines: synthesize deterministic hardware "
                  "counters (cycles/instructions/LLC misses) on every "
                  "invocation record; implied by --counter-prune");
}

/// What parallel_options_from reads.
void add_parallel_options(ArgParser& parser) {
  parser.add_option("workers",
                    "evaluate configurations in parallel with this many pool "
                    "workers (0 = hardware concurrency); simulated machines "
                    "only — results and journals stay bit-identical for any "
                    "worker count (docs/performance.md)");
  parser.add_option("lookahead",
                    "epochs allowed in flight at once (default 1 = each "
                    "epoch starts after every earlier one committed; higher "
                    "overlaps epochs across stragglers); requires --workers");
  parser.add_flag("pin-workers",
                  "pin pool workers to CPUs once at pool construction; "
                  "requires --workers");
  parser.add_flag("sched-stats",
                  "report scheduler accounting (tasks, steals, parks, idle "
                  "fraction) and append it to the trace journal as a "
                  "{\"t\":\"scheduler\"} record; requires --workers");
}

void add_trace_options(ArgParser& parser) {
  parser.add_option("trace",
                    "write a structured JSONL trace journal to this path; "
                    "analyze with 'rooftune trace' (docs/observability.md)");
  parser.add_option("export",
                    "write a portable tuning export (schema v1: space, "
                    "environment, per-invocation samples, best-found; "
                    "docs/formats.md) of the finished run to this path");
  parser.add_flag("perf-counters",
                  "attach hardware-counter deltas (cycles, instructions, LLC "
                  "misses) to every invocation record; requires --trace");
  parser.add_flag("telemetry",
                  "record machine telemetry (frequency/thermal/RAPL energy) "
                  "into a <trace>.telemetry.jsonl sidecar; requires --trace");
  parser.add_option("telemetry-period",
                    "background host sampling period in milliseconds "
                    "(default 100); requires --telemetry");
  parser.add_flag("energy",
                  "report the best configuration's energy efficiency "
                  "(J/GFLOP, GFLOP/s/W) from the sidecar; requires --telemetry");
  parser.add_option("profile",
                    "write a self-profile of the tuner (worker lanes, "
                    "setup/kernel spans, commit waits) to this path as "
                    "Chrome trace-event JSON — load in Perfetto or analyze "
                    "with 'rooftune profile' (docs/observability.md)");
}

/// Everything --trace/--telemetry hangs off one tuning run.  Destruction
/// order matters: the journal forwards spans into the sidecar at emit time,
/// so the sidecar member precedes the journal (destroyed after it).
struct TraceSetup {
  std::unique_ptr<telemetry::TelemetrySidecar> sidecar;
  std::unique_ptr<telemetry::TelemetrySampler> sampler;
  std::unique_ptr<trace::TraceJournal> journal;
  telemetry::EnvironmentFingerprint fingerprint;
  std::string sidecar_path;
  std::string profile_path;  ///< --profile sidecar; independent of --trace
  bool energy = false;

  explicit operator bool() const { return journal != nullptr; }
};

/// Build the journal named by --trace (if any), plus the telemetry sidecar
/// and background sampler when --telemetry asks for them, and wire the
/// journal into `options`.  `host_run` selects wall-clock telemetry (sysfs
/// span probe + sampler thread); simulated runs instead get deterministic
/// spans from the backend's drift model, keeping the sidecar byte-identical
/// across reruns and worker counts.
TraceSetup trace_setup_from(const ArgParser& parser, core::TunerOptions& options,
                            bool host_run) {
  if (parser.has("energy") && !parser.has("telemetry")) {
    throw std::invalid_argument("--energy requires --telemetry");
  }
  if (parser.get("telemetry-period").has_value() && !parser.has("telemetry")) {
    throw std::invalid_argument("--telemetry-period requires --telemetry");
  }
  TraceSetup setup;
  // --profile is its own sidecar, deliberately decoupled from --trace: the
  // profiler records host wall-clock and never touches the journal (whose
  // bytes must be identical with profiling on or off).
  if (const auto profile = parser.get("profile")) {
    if (profile->empty()) {
      throw std::invalid_argument("--profile wants a file path");
    }
    setup.profile_path = *profile;
    util::Profiler::instance().enable();
    // Serial strategies tune on this thread; parallel runs rename their
    // coordinator/worker lanes as they start.
    util::Profiler::instance().set_thread_name("main");
  }
  const auto path = parser.get("trace");
  if (!path) {
    if (parser.has("perf-counters")) {
      throw std::invalid_argument("--perf-counters requires --trace <path>");
    }
    if (parser.has("telemetry")) {
      throw std::invalid_argument("--telemetry requires --trace <path>");
    }
    return setup;
  }
  if (path->empty()) throw std::invalid_argument("--trace wants a file path");

  trace::JournalOptions journal_options;
  journal_options.path = *path;
  journal_options.perf_counters = parser.has("perf-counters");

  // Environment provenance heads every journal; its hash also stamps
  // checkpoints so a resume on different machine state is refused.
  setup.fingerprint = telemetry::EnvironmentFingerprint::capture();
  journal_options.provenance = setup.fingerprint;
  options.env_fingerprint = setup.fingerprint.stable_hash();

  if (parser.has("telemetry")) {
    setup.energy = parser.has("energy");
    setup.sidecar_path = *path + ".telemetry.jsonl";
    setup.sidecar =
        std::make_unique<telemetry::TelemetrySidecar>(setup.sidecar_path);
    journal_options.sidecar = setup.sidecar.get();
    if (host_run) {
      journal_options.span_probe = true;
      const double period_ms = parser.get_double("telemetry-period", 100.0);
      if (period_ms <= 0.0) {
        throw std::invalid_argument("--telemetry-period wants milliseconds > 0");
      }
      setup.sampler = std::make_unique<telemetry::TelemetrySampler>(
          telemetry::SysfsTelemetrySource(), period_ms / 1000.0);
      setup.sampler->start();
    }
  }

  setup.journal = std::make_unique<trace::TraceJournal>(journal_options);
  options.trace = setup.journal.get();
  options.trace_path = *path;
  return setup;
}

/// Stamp run metadata + totals into the journal, write journal + telemetry
/// sidecar, and print the end-of-run quality verdict.
void finish_trace(TraceSetup& setup, const core::TuningRun& run,
                  const std::string& benchmark, const std::string& metric,
                  const core::TunerOptions& options, std::ostream& out) {
  trace::TraceJournal& journal = *setup.journal;
  journal.begin_run({benchmark, metric, core::to_string(options.strategy)});
  trace::RunSummary summary;
  summary.configs = run.results.size();
  summary.pruned = run.pruned_configs;
  summary.invocations = run.total_invocations;
  summary.iterations = run.total_iterations;
  if (run.best_index.has_value()) summary.best = run.best_value();
  summary.scheduler = run.sched;
  journal.finish_run(summary);
  journal.flush();
  if (const char* reason = journal.perf_unavailable_reason(); *reason != '\0') {
    out << "note: perf counters unavailable: " << reason << '\n';
  }
  out << "wrote trace journal " << options.trace_path << " ("
      << journal.event_count() << " events)\n";

  if (!setup.sidecar) return;
  if (setup.sampler) {
    setup.sampler->stop();
    std::vector<telemetry::HostSample> samples;
    setup.sampler->drain(samples);
    for (const auto& sample : samples) setup.sidecar->add_host_sample(sample);
    setup.sidecar->set_sampler_stats(setup.sampler->stats());
    for (const auto& reason : setup.sampler->source().unavailable_reasons()) {
      out << "note: telemetry degraded: " << reason << '\n';
    }
  }
  setup.sidecar->flush();
  out << "wrote telemetry sidecar " << setup.sidecar_path << " ("
      << setup.sidecar->span_count() << " spans)\n";

  const telemetry::StabilityReport stability =
      telemetry::analyze_stability(telemetry::read_sidecar(setup.sidecar->str()));
  if (setup.energy) {
    const telemetry::ConfigStability* best = nullptr;
    if (run.best_index.has_value()) {
      for (const auto& c : stability.configs) {
        if (c.config_ordinal == *run.best_index && c.joules_per_gflop > 0.0) {
          best = &c;
          break;
        }
      }
    }
    if (best != nullptr) {
      out << util::format(
          "best config energy: %.3f J/GFLOP (%.3f GFLOP/s/W) over %zu "
          "invocation(s)\n",
          best->joules_per_gflop, best->gflops_per_watt, best->spans);
    } else {
      out << "note: --energy: no energy telemetry for the best configuration "
             "(RAPL unavailable or no spans recorded)\n";
    }
  }
  out << telemetry::render_run_quality(
      telemetry::assess_run_quality(setup.fingerprint, &stability));
}

/// Honor --profile <path>: snapshot the profiler's lanes and write the
/// Chrome trace-event sidecar, embedding the report's setup/kernel sums
/// (and the scheduler counters when --sched-stats collected them) so
/// `rooftune profile` can cross-check the three accountings.  Called after
/// finish_trace so the journal-flush span makes it into the timeline.
void finish_profile(TraceSetup& setup, const core::TuningRun& run,
                    const std::string& benchmark,
                    const core::TunerOptions& options, std::ostream& out) {
  if (setup.profile_path.empty()) return;
  util::Profiler& profiler = util::Profiler::instance();
  const util::ProfileSnapshot snapshot = profiler.snapshot();
  profiler.disable();
  trace::ProfileMetadata meta;
  meta.benchmark = benchmark;
  meta.strategy = core::to_string(options.strategy);
  meta.have_sums = true;
  meta.kernel_s_sum = run.total_kernel_time.value;
  meta.setup_s_sum = run.total_setup_time.value;
  meta.sched = run.sched;
  trace::write_profile_file(setup.profile_path, snapshot, std::move(meta));
  out << "wrote profile " << setup.profile_path << " ("
      << snapshot.total_records() << " records, " << snapshot.lanes.size()
      << " lanes)\n";
}

/// Honor --export <path>: serialize the finished run as a portable tuning
/// export (docs/formats.md).  Reuses the --trace fingerprint when one was
/// captured so the journal and the export describe the same environment.
void maybe_export(const ArgParser& parser, const core::TuningRun& run,
                  const core::SearchSpace& space, const std::string& benchmark,
                  const std::string& metric, const core::TunerOptions& options,
                  const TraceSetup& setup, std::ostream& out) {
  const auto path = parser.get("export");
  if (!path) return;
  if (path->empty()) throw std::invalid_argument("--export wants a file path");
  const auto env = setup ? setup.fingerprint
                         : telemetry::EnvironmentFingerprint::capture();
  const trace::ExportDocument doc =
      trace::make_export(run, space, benchmark, metric, options, env);
  trace::write_export_file(*path, doc);
  out << "wrote tuning export " << *path << " (" << doc.results.size()
      << " configuration(s))\n";
}

/// Parse --workers and its satellite flags into ParallelOptions, or nullopt
/// when the run is serial.  The satellites are rejected without --workers so
/// a typo like `--sched-stats` alone does not silently do nothing.
std::optional<core::ParallelOptions> parallel_options_from(const ArgParser& parser) {
  if (!parser.get("workers").has_value()) {
    if (parser.get("lookahead").has_value()) {
      throw std::invalid_argument("--lookahead requires --workers");
    }
    if (parser.has("pin-workers")) {
      throw std::invalid_argument("--pin-workers requires --workers");
    }
    if (parser.has("sched-stats")) {
      throw std::invalid_argument("--sched-stats requires --workers");
    }
    return std::nullopt;
  }
  core::ParallelOptions parallel;
  const auto workers = parser.get_int("workers", 0);
  if (workers < 0) throw std::invalid_argument("--workers must be >= 0");
  parallel.workers = static_cast<std::size_t>(workers);
  // The CLI only exposes the bit-reproducible schedule: journals and
  // results must not depend on the worker count.
  parallel.deterministic = true;
  const auto lookahead = parser.get_int("lookahead", 1);
  if (lookahead < 1) throw std::invalid_argument("--lookahead must be >= 1");
  parallel.lookahead = static_cast<std::size_t>(lookahead);
  parallel.pin_workers = parser.has("pin-workers");
  parallel.sched_stats = parser.has("sched-stats");
  return parallel;
}

/// Run `tuner`-style search with optional checkpointing, or fan out over a
/// worker pool when --workers asked for one (simulated backends only —
/// `factory` stays null for host runs, whose backends own process-global
/// state and cannot be instantiated per worker).
core::TuningRun run_search(const ArgParser& parser, const core::SearchSpace& space,
                           const core::TunerOptions& options,
                           core::Backend& backend,
                           KernelSpec::BackendFactory factory) {
  if (const auto parallel = parallel_options_from(parser)) {
    if (!factory) {
      throw std::invalid_argument(
          "--workers needs per-worker backend instances; --native backends "
          "own process-global state (OpenMP runtime) and only run serially");
    }
    if (parser.get("checkpoint").has_value()) {
      throw std::invalid_argument(
          "--workers does not support --checkpoint (checkpoints record the "
          "serial schedule); drop one of them");
    }
    return core::ParallelEvaluator(std::move(factory), options, *parallel)
        .run(space);
  }
  if (const auto checkpoint = parser.get("checkpoint")) {
    core::TunerOptions opts = options;
    if (opts.env_fingerprint == 0) {
      // Even untraced checkpointed runs get the environment stamp so a
      // resume on changed machine state (governor flip, different host) is
      // refused instead of silently mixing measurements.
      opts.env_fingerprint =
          telemetry::EnvironmentFingerprint::capture().stable_hash();
    }
    core::TuningSession session(space, opts, *checkpoint);
    return session.run(backend);
  }
  return core::Autotuner(space, options).run(backend);
}

core::Technique parse_technique(const std::string& text) {
  const std::string t = util::to_lower(text);
  if (t == "default") return core::Technique::Default;
  if (t == "single") return core::Technique::Single;
  if (t == "confidence" || t == "c") return core::Technique::Confidence;
  if (t == "c+i" || t == "c+inner") return core::Technique::CInner;
  if (t == "c+i+r" || t == "c+inner+r") return core::Technique::CInnerReverse;
  if (t == "c+i+o" || t == "c+i+outer") return core::Technique::CIOuter;
  if (t == "c+i+o+r") return core::Technique::CIOuterReverse;
  throw std::invalid_argument("unknown technique '" + text + "'");
}

core::TunerOptions tuner_options_from(const ArgParser& parser) {
  core::TunerOptions base;
  base.invocations = static_cast<std::uint64_t>(parser.get_int("invocations", 10));
  base.iterations = static_cast<std::uint64_t>(parser.get_int("iterations", 200));
  base.timeout = util::Seconds{parser.get_double("timeout", 10.0)};

  const auto technique = parse_technique(parser.get_or("technique", "c+i+o"));
  auto options = core::technique_options(
      technique, base, /*hand_tuned_iterations=*/0,
      static_cast<std::uint64_t>(parser.get_int("min-count", 2)));
  if (const auto order = parser.get("order")) {
    const std::string o = util::to_lower(*order);
    if (o == "forward") options.order = core::SearchOrder::Forward;
    else if (o == "reverse") options.order = core::SearchOrder::Reverse;
    else if (o == "random") options.order = core::SearchOrder::Random;
    else throw std::invalid_argument("unknown order '" + *order + "'");
  }
  options.random_seed = static_cast<std::uint64_t>(parser.get_int("seed", 2021));
  if (const auto strategy = parser.get("strategy")) {
    const std::string s = util::to_lower(*strategy);
    if (s == "exhaustive") options.strategy = core::SearchStrategy::Exhaustive;
    else if (s == "racing") options.strategy = core::SearchStrategy::Racing;
    else if (s == "surrogate") options.strategy = core::SearchStrategy::Surrogate;
    else throw std::invalid_argument("unknown strategy '" + *strategy + "'");
  }
  options.racing_min_invocations =
      static_cast<std::uint64_t>(parser.get_int("racing-min", 3));
  options.surrogate_seed_budget =
      static_cast<std::uint64_t>(parser.get_int("seed-budget", 64));
  options.surrogate_confirm_top =
      static_cast<std::uint64_t>(parser.get_int("confirm-top", 16));
  return options;
}

simhw::SimOptions sim_options_from(const ArgParser& parser) {
  simhw::SimOptions sim;
  sim.sockets_used = static_cast<int>(parser.get_int("sockets", 1));
  sim.seed = static_cast<std::uint64_t>(parser.get_int("seed", 2021));
  // The sim engages its arena model only when the user turns the setup-cost
  // knob or names --arena explicitly; default runs keep the legacy cost
  // model bit-identical.
  sim.setup_overhead_s = parser.get_double("setup-overhead", 0.0);
  if (parser.get("arena").has_value() || sim.setup_overhead_s > 0.0) {
    sim.arena_reuse = arena_enabled(parser);
  }
  // Synthetic thermal/energy model: engaged only when asked, and it only
  // feeds telemetry spans — simulated rates stay bit-identical regardless.
  sim.thermal_tau_s = parser.get_double("thermal-tau", 0.0);
  sim.throttle_factor = parser.get_double("throttle-factor", 1.0);
  sim.pkg_power_w = parser.get_double("pkg-power", 0.0);
  sim.dram_power_w = parser.get_double("dram-power", 0.0);
  // Host-cost skew: a scheduling stressor, not a measurement knob — the
  // simulated rates and journals are unchanged by construction.
  sim.cost_skew = parser.get_double("cost-skew", 0.0);
  sim.cost_base_s = parser.get_double("cost-base", 0.001);
  if (sim.cost_skew < 0.0) throw std::invalid_argument("--cost-skew must be >= 0");
  if (sim.cost_base_s < 0.0) throw std::invalid_argument("--cost-base must be >= 0");
  return sim;
}

/// Wire --counter-prune [margin] into the tuner options.  The roofline
/// ceilings come from the machine spec here in the CLI — core only ever
/// sees plain-double ceilings, never simhw types.
void counter_prune_from(const ArgParser& parser, core::TunerOptions& options,
                        const simhw::MachineSpec& machine, int sockets_used) {
  if (!parser.has("counter-prune")) return;
  options.counter_prune = true;
  options.counter_prune_margin =
      parser.get_double("counter-prune", options.counter_prune_margin);
  options.counter_prune_window = static_cast<std::uint64_t>(
      parser.get_int("counter-window", static_cast<std::int64_t>(
                                           options.counter_prune_window)));
  options.counter_peak_gflops = machine.theoretical_flops(sockets_used).value;
  options.counter_dram_gbps =
      machine.theoretical_bandwidth(sockets_used).value;
}

/// --counter-prune under --native: the ceilings must be declared
/// (--custom-machine) and the counters must actually be sampled
/// (--trace + --perf-counters), else the policy would silently never fire.
void counter_prune_native(const ArgParser& parser, core::TunerOptions& options) {
  if (!parser.has("counter-prune")) return;
  const auto spec = parser.get("custom-machine");
  if (!spec) {
    throw std::invalid_argument(
        "--counter-prune with --native needs --custom-machine to declare "
        "the roofline ceilings");
  }
  if (!parser.has("perf-counters")) {
    throw std::invalid_argument(
        "--counter-prune with --native needs --trace and --perf-counters "
        "(the bound is derived from sampled hardware counters)");
  }
  const auto machine = simhw::parse_machine_spec(*spec);
  counter_prune_from(parser, options, machine, machine.sockets);
}

void emit_run(const core::TuningRun& run, const std::string& benchmark,
              const std::string& metric, const ArgParser& parser, std::ostream& out) {
  if (parser.has("json")) {
    out << core::to_json(run, benchmark, metric) << '\n';
  } else if (parser.has("csv")) {
    core::write_csv(out, run);
  } else {
    out << core::summary(run, metric) << '\n';
  }
}

int cmd_machines(std::ostream& out) {
  util::TextTable table;
  table.columns({"Name", "CPU", "Cores", "AVX", "Sockets", "L3/socket", "F_t (1S)",
                 "B_t (system)"},
                {util::Align::Left});
  for (const auto& m : simhw::all_machines()) {
    table.add_row({m.name, util::format("%.1f GHz", m.cpu_freq_ghz),
                   std::to_string(m.cores_per_socket), to_string(m.avx),
                   std::to_string(m.sockets), util::format_bytes(m.l3_per_socket),
                   util::format("%.1f GF/s", m.theoretical_flops(1).value),
                   util::format("%.3f GB/s", m.theoretical_bandwidth(m.sockets).value)});
  }
  out << table.render();
  return 0;
}

/// Options of `rooftune <kernel>`: the tuner, report, journal and
/// checkpoint options every kernel reads; machine, simulator and parallel
/// options when the kernel has a simulated backend; then its own.
void add_tune_options(ArgParser& parser, const KernelSpec& kernel) {
  add_tuner_options(parser);
  parser.add_flag("json", "emit the full tuning report as JSON");
  parser.add_flag("csv", "emit per-configuration results as CSV");
  parser.add_option("checkpoint",
                    "checkpoint file: persist progress after every configuration "
                    "and resume interrupted searches");
  add_trace_options(parser);
  if (kernel.sim != nullptr) {
    // Registers --native even without a native backend, so that the
    // refusal in cmd_tune can say why.
    add_machine_options(parser);
    add_sim_options(parser);
    add_counter_prune_options(parser);
    add_parallel_options(parser);
    if (kernel.native != nullptr) {
      add_custom_machine_option(parser);
      add_huge_pages_option(parser);
    }
  }
  if (kernel.add_options != nullptr) kernel.add_options(parser);
}

/// Options only the simulated backends read, and options only the native
/// backends read.  Both sets are registered on every kernel with both
/// backends, so cmd_tune refuses the set the chosen backend would ignore.
constexpr const char* kSimOnlyOptions[] = {
    "machine",         "sockets",   "setup-overhead", "thermal-tau",
    "throttle-factor", "pkg-power", "dram-power",     "cost-skew",
    "cost-base",       "sim-counters"};
constexpr const char* kNativeOnlyOptions[] = {"huge-pages", "custom-machine"};

/// The tuning sequence every kernel shares: options, backend (plus the
/// per-worker factory on simulated machines), search, journal, profile,
/// export and report.
int cmd_tune(const KernelSpec& kernel, const ArgParser& parser, std::ostream& out) {
  const bool host_run = kernel.sim == nullptr || parser.has("native");
  if (host_run && kernel.native == nullptr) {
    throw std::invalid_argument(
        std::string(kernel.name) +
        ": --native is not supported (its backend models the kernel on "
        "simulated machines only; docs/kernels.md)");
  }
  const std::span<const char* const> unread =
      host_run ? std::span<const char* const>(kSimOnlyOptions)
               : std::span<const char* const>(kNativeOnlyOptions);
  for (const char* name : unread) {
    if (parser.has(name)) {
      throw std::invalid_argument("--" + std::string(name) +
                                  " has no effect " +
                                  (host_run ? "with" : "without") + " --native");
    }
  }
  auto options = tuner_options_from(parser);
  auto setup = trace_setup_from(parser, options, host_run);
  const core::SearchSpace space = kernel.space(parser);

  std::unique_ptr<core::Backend> backend;
  KernelSpec::BackendFactory factory;
  if (host_run) {
    counter_prune_native(parser, options);
    backend = kernel.native(parser);
  } else {
    const auto machine = simhw::machine_by_name(parser.get_or("machine", "2650v4"));
    auto sim = sim_options_from(parser);
    counter_prune_from(parser, options, machine, sim.sockets_used);
    sim.counter_model = options.counter_prune || parser.has("sim-counters");
    factory = kernel.sim(parser, machine, sim);
    backend = factory();
  }
  const std::string metric = backend->metric_name();
  const auto run = run_search(parser, space, options, *backend, std::move(factory));
  if (setup) finish_trace(setup, run, kernel.name, metric, options, out);
  finish_profile(setup, run, kernel.name, options, out);
  maybe_export(parser, run, space, kernel.name, metric, options, setup, out);
  emit_run(run, kernel.name, metric, parser, out);
  return 0;
}

/// The standard space for a journal's benchmark name — journal reconstruction
/// needs one because journals record configurations but not the space
/// definition.  That is the kernel's space under default options (dgemm: the
/// production reduced space); runs over a variant space (--small-space,
/// --grid-scale, --min-mib) should export from the live run (--export)
/// instead.  Host-only kernels (pipe) take their whole space from the
/// command line, so they have no standard one.
core::SearchSpace space_for_benchmark(const std::string& benchmark) {
  const KernelSpec* kernel = find_kernel(benchmark);
  if (kernel == nullptr || kernel->sim == nullptr) {
    throw std::invalid_argument(
        "export: no standard search space for benchmark '" + benchmark +
        "'; pass --export to the tuning command to export from the live run");
  }
  return kernel->space(ArgParser{});
}

int cmd_export(const ArgParser& parser, std::ostream& out) {
  const auto journal_path = parser.get("journal");
  if (!journal_path) {
    throw std::invalid_argument("export: --journal <trace.jsonl> is required");
  }
  const auto output = parser.get("output");
  if (!output) {
    throw std::invalid_argument("export: --output <file.json> is required");
  }
  const trace::Journal journal = trace::read_journal_file(*journal_path);
  const trace::ExportDocument doc = trace::export_from_journal(
      journal, space_for_benchmark(journal.header.benchmark));
  trace::write_export_file(*output, doc);
  out << "wrote tuning export " << *output << " (" << doc.results.size()
      << " configuration(s), benchmark " << doc.benchmark << ")\n";
  return 0;
}

int cmd_import(const ArgParser& parser, std::ostream& out) {
  if (parser.positional().size() != 1) {
    throw std::invalid_argument(
        "import: exactly one <export.json> argument is required");
  }
  const trace::ExportDocument doc =
      trace::parse_export_file(parser.positional()[0]);
  out << "export: benchmark " << doc.benchmark << ", metric " << doc.metric
      << ", strategy " << doc.technique.strategy << ", "
      << doc.results.size() << " configuration(s)";
  if (doc.best_index.has_value()) {
    const auto& best = doc.results[*doc.best_index];
    out << ", best " << best.config.to_string() << " = "
        << util::format("%.6g", best.value);
  }
  out << '\n';
  if (const auto reexport = parser.get("output")) {
    trace::write_export_file(*reexport, doc);
    out << "re-exported to " << *reexport << '\n';
  }
  if (!parser.has("replay")) return 0;

  const trace::ReplayOutcome outcome = trace::replay_export(doc);
  out << "replay: " << outcome.configs << " configuration(s) re-scored, "
      << outcome.value_mismatches << " value mismatch(es)\n";
  if (!outcome.ok()) {
    out << "replay: FAILED — " << outcome.first_mismatch << '\n';
    return 1;
  }
  out << "replay: recorded optimum reproduced bit-identically";
  if (outcome.replayed_best_index.has_value()) {
    out << " ("
        << doc.results[*outcome.replayed_best_index].config.to_string()
        << " = " << util::format("%.6g", outcome.replayed_best_value) << ")";
  }
  out << '\n';
  return 0;
}

int cmd_roofline(const ArgParser& parser, std::ostream& out) {
  roofline::BuilderOptions options;
  options.tuner = tuner_options_from(parser);
  options.prune_min_count = static_cast<std::uint64_t>(parser.get_int("min-count", 10));
  options.seed = static_cast<std::uint64_t>(parser.get_int("seed", 2021));

  roofline::RooflineModel model;
  if (parser.has("native")) {
    if (const auto spec = parser.get("custom-machine")) {
      options.native_spec = simhw::parse_machine_spec(*spec);
    }
    if (!parser.has("full-space")) {
      // The full 96-point sweep at 10 s budgets is a cluster-scale job;
      // protect interactive hosts by default.
      options.dgemm_space = core::dgemm_narrowed_space();
    }
    model = roofline::build_native(options);
  } else {
    const auto machine = simhw::machine_by_name(parser.get_or("machine", "2650v4"));
    model = roofline::build_simulated(machine, options);
  }

  if (parser.has("json")) {
    out << roofline::to_json(model) << '\n';
  } else {
    out << roofline::utilization_report(model);
    out << '\n' << roofline::render_ascii(model);
  }

  if (const auto svg_path = parser.get("svg")) {
    std::ofstream svg(*svg_path);
    if (!svg) throw std::invalid_argument("cannot write SVG to '" + *svg_path + "'");
    svg << roofline::render_svg(model);
    out << "wrote " << *svg_path << '\n';
  }
  return 0;
}

int cmd_stream(const ArgParser& parser, std::ostream& out) {
  // Full STREAM suite, the way stream.c reports it: per kernel, the best
  // DRAM-resident bandwidth found by the autotuner.
  const auto options = tuner_options_from(parser);

  util::TextTable table;
  table.columns({"Kernel", "Best rate [GB/s]", "Best N", "Working set"},
                {util::Align::Left});

  for (const auto kernel : {stream::Kernel::Copy, stream::Kernel::Scale,
                            stream::Kernel::Add, stream::Kernel::Triad}) {
    std::unique_ptr<core::Backend> backend;
    core::SearchSpace space;
    if (parser.has("native")) {
      core::NativeTriadBackend::Options native;
      native.reuse = arena_enabled(parser);
      native.arena_options.huge_pages = parser.has("huge-pages");
      native.kernel = kernel;
      backend = std::make_unique<core::NativeTriadBackend>(native);
      space = core::triad_space(util::Bytes::MiB(8), util::Bytes::MiB(256));
    } else {
      const auto machine = simhw::machine_by_name(parser.get_or("machine", "2650v4"));
      auto sim = sim_options_from(parser);
      sim.stream_kernel = kernel;
      backend = find_kernel("triad")->sim(parser, machine, sim)();
      // DRAM-resident sweep per the STREAM convention.
      space = core::triad_space(
          util::Bytes{8 * machine.l3_capacity(sim.sockets_used).value},
          util::Bytes::MiB(768));
    }
    const auto run = core::Autotuner(space, options).run(*backend);
    const auto& best = run.best();
    table.add_row({to_string(kernel), util::format("%.2f", run.best_value()),
                   std::to_string(best.config.at("N")),
                   util::format_bytes(core::triad_working_set(best.config))});
  }
  out << table.render();
  return 0;
}

int cmd_advise(const ArgParser& parser, std::ostream& out) {
  const double intensity_value = parser.get_double("intensity", 1.0 / 12.0);
  if (intensity_value <= 0.0) {
    throw std::invalid_argument("--intensity must be positive");
  }
  const util::Intensity intensity{intensity_value};

  roofline::BuilderOptions options;
  options.tuner = tuner_options_from(parser);
  options.prune_min_count = static_cast<std::uint64_t>(parser.get_int("min-count", 10));
  options.seed = static_cast<std::uint64_t>(parser.get_int("seed", 2021));

  std::vector<roofline::RooflineModel> models;
  if (const auto machine = parser.get("machine")) {
    models.push_back(
        roofline::build_simulated(simhw::machine_by_name(*machine), options));
  } else {
    for (const auto& m : simhw::paper_machines()) {
      models.push_back(roofline::build_simulated(m, options));
    }
  }

  out << util::format(
      "kernel intensity: %.4f FLOP/byte (TRIAD is %.4f; DGEMM n=m=k=1000 is ~%.0f)\n\n",
      intensity.value, 1.0 / 12.0, 1000.0 / 16.0);

  util::TextTable table;
  table.columns({"Rank", "Machine", "Attainable", "Bound by"}, {util::Align::Left});
  const auto ranking = roofline::rank_machines(models, intensity);
  for (std::size_t i = 0; i < ranking.size(); ++i) {
    table.add_row({std::to_string(i + 1), ranking[i].machine,
                   util::format("%.2f GFLOP/s", ranking[i].attainable.value),
                   ranking[i].memory_bound ? "memory" : "compute"});
  }
  out << table.render();

  for (const auto& model : models) {
    const auto a = roofline::assess(model, intensity);
    out << util::format(
        "%s: attainable %.2f GFLOP/s (%.1f%% of compute peak), %s-bound, "
        "ridge at %.2f FLOP/byte\n",
        model.machine_name.c_str(), a.attainable.value,
        100.0 * a.compute_fraction, a.memory_bound ? "memory" : "compute",
        a.ridge.value);
  }
  return 0;
}

int cmd_trace(const std::vector<std::string>& args, std::ostream& out) {
  if (args.empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    out << "usage: rooftune trace <journal.jsonl>\n"
           "\n"
           "Analyze a journal written by --trace: per-configuration\n"
           "elimination timeline, racing round summaries, per-stop-condition\n"
           "iteration accounting, prune savings vs a fixed-iteration budget,\n"
           "and operational-intensity columns (analytic next to\n"
           "counter-derived when --perf-counters sampled hardware events).\n"
           "When a <journal>.telemetry.jsonl sidecar sits next to the\n"
           "journal (--telemetry), also prints the machine stability report:\n"
           "per-configuration frequency CV, throttle events, Joules/GFLOP\n"
           "and GFLOP/s/W, plus the run-quality verdict from the recorded\n"
           "environment provenance.\n"
           "\n";
    out << trace::schema_reference();
    return args.empty() ? 1 : 0;
  }
  const trace::Journal journal = trace::read_journal_file(args[0]);
  out << trace::render_report(journal, analyze(journal));
  const std::string sidecar_path = args[0] + ".telemetry.jsonl";
  if (std::ifstream(sidecar_path).good()) {
    const telemetry::StabilityReport stability =
        telemetry::analyze_stability(telemetry::read_sidecar_file(sidecar_path));
    if (!stability.empty()) {
      out << '\n' << telemetry::render_stability_report(stability);
    }
    if (journal.provenance.has_value()) {
      out << telemetry::render_run_quality(
          telemetry::assess_run_quality(*journal.provenance, &stability));
    }
  }
  return 0;
}

int cmd_profile(const std::vector<std::string>& args, std::ostream& out) {
  std::vector<std::string> rest;
  std::size_t top_spans = 10;
  std::size_t gantt_width = 72;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--top" || args[i] == "--width") {
      if (i + 1 >= args.size()) {
        throw std::invalid_argument("profile: " + args[i] + " wants a number");
      }
      const long value = std::stol(args[i + 1]);
      if (value < 1) {
        throw std::invalid_argument("profile: " + args[i] + " must be >= 1");
      }
      (args[i] == "--top" ? top_spans : gantt_width) =
          static_cast<std::size_t>(value);
      ++i;
      continue;
    }
    rest.push_back(args[i]);
  }
  if (rest.empty() || rest[0] == "--help" || rest[0] == "-h" ||
      rest[0] == "help") {
    out << "usage: rooftune profile [--top N] [--width N] <profile.json>\n"
           "\n"
           "Analyze a self-profile written by --profile: per-category time\n"
           "hierarchy with self times, per-worker busy/steal/park lanes as\n"
           "an ASCII Gantt, the longest spans, a critical-path estimate,\n"
           "the profiler's own overhead, and a cross-check of the profile's\n"
           "totals against the report's setup/kernel sums and the\n"
           "SchedulerStats counters embedded at write time.  The same file\n"
           "loads unmodified in Perfetto (ui.perfetto.dev) or\n"
           "chrome://tracing; schema in docs/observability.md.\n";
    return rest.empty() ? 1 : 0;
  }
  trace::ProfileReportOptions options;
  options.top_spans = top_spans;
  options.gantt_width = gantt_width;
  out << trace::render_profile_report(trace::parse_profile_file(rest[0]),
                                      options);
  return 0;
}

int cmd_version(std::ostream& out) {
#ifdef NDEBUG
  const char* build_type = "Release";
#else
  const char* build_type = "Debug";
#endif
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  out << "rooftune — Autotuning Benchmarking Techniques: A Roofline Model "
         "Case Study (reproduction)\n";
  out << "  build:           " << build_type << '\n';
  out << "  compiler:        " << compiler << '\n';
  out << "  simd dispatch:   " << blas::detail::active_kernel_plan().name
      << '\n';
  out << "  journal schema:  v" << trace::kJournalSchemaVersion << '\n';
  out << "  export schema:   v" << trace::kExportSchemaVersion << '\n';
  out << "  profile schema:  v" << trace::kProfileSchemaVersion << '\n';
  return 0;
}

// ---- the other option-parsing commands --------------------------------------

void add_roofline_options(ArgParser& parser) {
  add_tuner_options(parser);
  add_machine_options(parser);
  add_custom_machine_option(parser);
  parser.add_flag("full-space",
                  "--native: tune the full 96-point reduced DGEMM space "
                  "instead of the narrowed power-of-two default");
  parser.add_flag("json", "emit the roofline model as JSON");
  parser.add_option("svg", "write the roofline graph as SVG");
}

void add_advise_options(ArgParser& parser) {
  add_tuner_options(parser);
  parser.add_option("machine",
                    "simulated machine to assess (default: every paper machine)");
  parser.add_option("intensity", "kernel operational intensity in FLOP/byte");
}

void add_stream_options(ArgParser& parser) {
  add_tuner_options(parser);
  add_machine_options(parser);
  add_sim_options(parser);
  add_huge_pages_option(parser);
}

void add_export_options(ArgParser& parser) {
  parser.add_option("journal",
                    "trace journal (--trace output) to reconstruct the "
                    "export from");
  parser.add_option("output", "destination file for the export document", "o");
}

void add_import_options(ArgParser& parser) {
  parser.add_flag("replay",
                  "re-score every recorded configuration through a "
                  "mock backend and verify the recorded optimum "
                  "bit-identically (docs/formats.md)");
  parser.add_option("output",
                    "re-export the parsed document to this path "
                    "(byte-identical to a well-formed input)",
                    "o");
}

struct Command {
  const char* name;
  void (*add_options)(ArgParser&);
  int (*run)(const ArgParser&, std::ostream&);
};

constexpr Command kCommands[] = {
    {"roofline", add_roofline_options, cmd_roofline},
    {"advise", add_advise_options, cmd_advise},
    {"stream", add_stream_options, cmd_stream},
    {"export", add_export_options, cmd_export},
    {"import", add_import_options, cmd_import},
};

std::string usage() {
  std::string text =
      "usage: rooftune <command> [options]\n"
      "       rooftune <command> --help   (that command's options)\n"
      "\n"
      "commands:\n"
      "  machines   list the built-in simulated machines\n"
      "  roofline   autotune DGEMM + TRIAD and assemble the roofline model\n";
  for (const auto& kernel : kernels()) {
    text += util::format("  %-10s %s\n", kernel.name, kernel.usage);
  }
  text +=
      "  advise     rank machines by attainable performance at a kernel's\n"
      "             operational intensity (--intensity FLOP/byte)\n"
      "  stream     run the full STREAM suite (copy/scale/add/triad)\n"
      "  trace      analyze a --trace JSONL journal ('rooftune trace --help'\n"
      "             documents the schema; see docs/observability.md)\n"
      "  export     reconstruct a portable tuning export from a --trace\n"
      "             journal: --journal run.jsonl -o run.export.json\n"
      "             (schema in docs/formats.md; live runs can write one\n"
      "             directly with --export)\n"
      "  import     read a tuning export; --replay re-scores every recorded\n"
      "             configuration through a mock backend and verifies the\n"
      "             recorded optimum bit-identically\n"
      "  profile    analyze a --profile self-profile sidecar: category\n"
      "             hierarchy, per-worker Gantt, longest spans, critical\n"
      "             path, and a cross-check against the report's sums\n"
      "  version    print build type, compiler, SIMD dispatch level, and\n"
      "             the journal/export/profile schema versions\n"
      "\n";
  return text;
}

bool wants_help(const std::vector<std::string>& args) {
  return std::any_of(args.begin(), args.end(), [](const std::string& arg) {
    return arg == "--help" || arg == "-h";
  });
}

}  // namespace

int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err) {
  if (args.empty() || args[0] == "help" || args[0] == "--help" || args[0] == "-h") {
    out << usage();
    return args.empty() ? 1 : 0;
  }

  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());

  try {
    if (command == "machines") return cmd_machines(out);
    if (command == "version" || command == "--version") return cmd_version(out);
    if (command == "trace") return cmd_trace(rest, out);
    if (command == "profile") return cmd_profile(rest, out);

    ArgParser parser;
    const KernelSpec* kernel = find_kernel(command);
    const Command* other = nullptr;
    if (kernel != nullptr) {
      add_tune_options(parser, *kernel);
    } else {
      for (const auto& c : kCommands) {
        if (command == c.name) other = &c;
      }
      if (other == nullptr) {
        err << "unknown command '" << command << "'\n" << usage();
        return 1;
      }
      other->add_options(parser);
    }
    if (wants_help(rest)) {
      out << "usage: rooftune " << command << " [options]\n\noptions:\n"
          << parser.help();
      return 0;
    }
    parser.parse(rest);
    return kernel != nullptr ? cmd_tune(*kernel, parser, out) : other->run(parser, out);
  } catch (const std::exception& e) {
    err << "error: " << e.what() << '\n';
    return 1;
  }
}

}  // namespace rooftune::cli

#include "trace/analyze.hpp"

#include <algorithm>
#include <cmath>

#include "util/strings.hpp"

namespace rooftune::trace {

namespace {

struct IntensityAccumulator {
  double flops = 0.0;
  double bytes = 0.0;
  std::uint64_t llc_misses = 0;
  bool have_perf = false;
};

}  // namespace

TraceAnalysis analyze(const Journal& journal) {
  TraceAnalysis analysis;
  std::map<std::uint64_t, ConfigTimeline> configs;
  std::map<std::uint64_t, IntensityAccumulator> intensity;
  std::uint64_t seed_errors = 0;
  double seed_error_sum = 0.0;

  using Kind = core::TraceEvent::Kind;
  for (const JournalRecord& record : journal.records) {
    const core::TraceEvent& e = record.event;
    switch (e.kind) {
      case Kind::Invocation: {
        ConfigTimeline& config = configs[e.config_ordinal];
        config.ordinal = e.config_ordinal;
        if (config.config.empty()) config.config = e.config.to_string();
        ++config.invocations;
        config.iterations += e.iterations;
        config.kernel_s += e.kernel_s;
        config.setup_s += e.setup_s;

        StopAccounting& accounting =
            analysis.by_reason[core::to_string(e.reason)];
        ++accounting.decisions;
        accounting.iterations += e.iterations;
        ++analysis.total_invocations;
        analysis.total_iterations += e.iterations;
        analysis.max_invocation_iterations =
            std::max(analysis.max_invocation_iterations, e.iterations);

        IntensityAccumulator& acc = intensity[e.config_ordinal];
        if (e.flops.has_value()) acc.flops += *e.flops;
        if (e.bytes.has_value()) acc.bytes += *e.bytes;
        if (record.perf.has_value() && record.perf->valid) {
          acc.llc_misses += record.perf->llc_misses;
          acc.have_perf = true;
          if (record.perf->scaled) ++analysis.scaled_perf_invocations;
        }
        break;
      }
      case Kind::ConfigDone: {
        ConfigTimeline& config = configs[e.config_ordinal];
        config.ordinal = e.config_ordinal;
        if (config.config.empty()) config.config = e.config.to_string();
        config.stop_reason = core::to_string(e.reason);
        config.value = e.value;
        if (config.outcome.empty()) {
          config.outcome = e.pruned ? "pruned" : "finished";
        }
        break;
      }
      case Kind::Elimination: {
        ConfigTimeline& config = configs[e.config_ordinal];
        config.ordinal = e.config_ordinal;
        if (config.config.empty()) config.config = e.config.to_string();
        config.eliminated_round = e.epoch;
        config.elimination_basis = e.basis;
        config.outcome = "eliminated";
        break;
      }
      case Kind::Round:
        analysis.rounds.push_back(e);
        break;
      case Kind::SurrogateFit:
        if (!analysis.surrogate.has_value()) analysis.surrogate.emplace();
        if (e.config.parameters().empty()) {
          analysis.surrogate->samples = e.count;
          analysis.surrogate->r2 = e.r2;
          analysis.surrogate->log_scale = e.model_log_scale;
        } else if (e.predicted.has_value()) {
          ++seed_errors;
          seed_error_sum += std::abs(*e.predicted - e.value) /
                            std::max(std::abs(e.value), 1e-12);
        }
        break;
      case Kind::PruneBatch:
        if (!analysis.surrogate.has_value()) analysis.surrogate.emplace();
        if (e.config.parameters().empty()) {
          analysis.surrogate->scanned = e.scanned;
          analysis.surrogate->kept = e.kept;
        } else {
          analysis.surrogate->candidates.emplace_back(
              e.config.to_string(), e.predicted.value_or(0.0));
        }
        break;
      case Kind::CounterPrune: {
        ConfigTimeline& config = configs[e.config_ordinal];
        config.ordinal = e.config_ordinal;
        if (config.config.empty()) config.config = e.config.to_string();
        config.outcome = "eliminated";
        config.elimination_basis = "counter-bound";
        // Rank 5 records come from racing's round conclusion and rank 1
        // records from the pre-invocation skip (both epoch = the round);
        // rank 3 records come from the per-config invocation loop, where
        // the epoch is not a round number.
        if (e.rank == 5 || e.rank == 1) config.eliminated_round = e.epoch;

        if (!analysis.counter_prune.has_value()) {
          analysis.counter_prune.emplace();
        }
        CounterPruneAnalysis& cp = *analysis.counter_prune;
        ++cp.pruned;
        if (e.count == 0) ++cp.skipped;
        ++cp.by_class[e.basis];
        if (e.widened) ++cp.widened;
        cp.margin = e.margin;
        cp.entries.push_back(
            {e.config.to_string(), e.basis, e.bound, e.oi, e.incumbent});
        break;
      }
      case Kind::IncumbentUpdate:
      case Kind::StopDecision:
      case Kind::Resume:
        break;
    }
  }
  if (analysis.surrogate.has_value() && seed_errors > 0) {
    analysis.surrogate->mean_seed_error =
        seed_error_sum / static_cast<double>(seed_errors);
  }

  for (auto& [ordinal, config] : configs) {
    const IntensityAccumulator& acc = intensity[ordinal];
    if (acc.flops > 0.0 && acc.bytes > 0.0) {
      config.analytic_intensity = acc.flops / acc.bytes;
    }
    if (acc.flops > 0.0 && acc.have_perf && acc.llc_misses > 0) {
      // LLC misses x 64-byte lines = measured DRAM traffic.
      config.measured_intensity =
          acc.flops / (64.0 * static_cast<double>(acc.llc_misses));
    }
    analysis.configs.push_back(std::move(config));
  }

  // Savings against the fixed-iteration schedule this journal implies:
  // every invocation running to the largest observed iteration count.
  analysis.saved_iterations =
      analysis.max_invocation_iterations * analysis.total_invocations -
      analysis.total_iterations;

  if (journal.summary.has_value()) {
    const JournalSummary& summary = *journal.summary;
    const auto check = [&](const char* what, std::uint64_t recorded,
                           std::uint64_t derived) {
      if (recorded != derived) {
        analysis.inconsistencies.push_back(util::format(
            "%s: summary records %llu but records sum to %llu", what,
            static_cast<unsigned long long>(recorded),
            static_cast<unsigned long long>(derived)));
      }
    };
    check("iterations", summary.iterations, analysis.total_iterations);
    check("invocations", summary.invocations, analysis.total_invocations);
    check("configs", summary.configs, analysis.configs.size());
    std::uint64_t pruned = 0;
    for (const auto& config : analysis.configs) {
      if (config.outcome != "finished") ++pruned;
    }
    check("pruned", summary.pruned, pruned);
  }
  return analysis;
}

namespace {

std::string intensity_cell(const std::optional<double>& value) {
  return value.has_value() ? util::format("%10.4f", *value)
                           : std::string("         -");
}

}  // namespace

std::string render_report(const Journal& journal,
                          const TraceAnalysis& analysis) {
  std::string out;
  out += util::format("trace: %s (%s), strategy %s, schema v%d\n",
                      journal.header.benchmark.c_str(),
                      journal.header.metric.c_str(),
                      journal.header.strategy.c_str(), journal.header.version);
  if (!journal.header.perf_degraded.empty()) {
    out += util::format(
        "note: perf counters degraded (%s) — OI-meas column unavailable\n",
        journal.header.perf_degraded.c_str());
  }
  if (journal.provenance.has_value()) {
    const telemetry::EnvironmentFingerprint& env = *journal.provenance;
    out += util::format("env: %s, %d cores x %d SMT, %d NUMA node%s\n",
                        env.cpu_model.c_str(), env.physical_cores, env.smt,
                        env.numa_nodes, env.numa_nodes == 1 ? "" : "s");
    out += util::format(
        "env: governor %s, turbo %s, thp %s, aslr %s\n", env.governor.c_str(),
        env.turbo.c_str(), env.thp.c_str(), env.aslr.c_str());
    out += util::format("env: %s, build %s\n", env.compiler.c_str(),
                        env.build.c_str());
  }
  if (journal.summary.has_value()) {
    const JournalSummary& s = *journal.summary;
    out += util::format(
        "run: %llu configs (%llu pruned), %llu invocations, %llu iterations",
        static_cast<unsigned long long>(s.configs),
        static_cast<unsigned long long>(s.pruned),
        static_cast<unsigned long long>(s.invocations),
        static_cast<unsigned long long>(s.iterations));
    if (s.best.has_value()) {
      out += util::format(", best %.2f %s", *s.best,
                          journal.header.metric.c_str());
    }
    out += '\n';
  }
  out += '\n';

  out += "configuration timeline\n";
  out += util::format("  %-4s %-28s %-10s %-14s %5s %8s %12s %10s %10s\n",
                      "ord", "config", "outcome", "stop", "inv", "iters",
                      "value", "OI-calc", "OI-meas");
  for (const auto& config : analysis.configs) {
    std::string outcome = config.outcome;
    if (config.eliminated_round.has_value()) {
      outcome += util::format(
          "@r%llu", static_cast<unsigned long long>(*config.eliminated_round));
    }
    out += util::format(
        "  %-4llu %-28s %-10s %-14s %5llu %8llu %12.2f %s %s\n",
        static_cast<unsigned long long>(config.ordinal),
        config.config.c_str(), outcome.c_str(), config.stop_reason.c_str(),
        static_cast<unsigned long long>(config.invocations),
        static_cast<unsigned long long>(config.iterations), config.value,
        intensity_cell(config.analytic_intensity).c_str(),
        intensity_cell(config.measured_intensity).c_str());
  }
  out += '\n';

  if (analysis.surrogate.has_value()) {
    const SurrogateAnalysis& s = *analysis.surrogate;
    out += "surrogate model\n";
    out += util::format("  fit: %llu samples, R^2 %.4f (%s scale)",
                        static_cast<unsigned long long>(s.samples), s.r2,
                        s.log_scale ? "log" : "raw");
    if (s.mean_seed_error.has_value()) {
      out += util::format(", mean seed error %.1f%%", 100.0 * *s.mean_seed_error);
    }
    out += '\n';
    const std::uint64_t pruned = s.scanned - s.kept;
    out += util::format(
        "  prune: %llu configurations scanned, %llu kept, %llu pruned "
        "(%.1f%%)\n",
        static_cast<unsigned long long>(s.scanned),
        static_cast<unsigned long long>(s.kept),
        static_cast<unsigned long long>(pruned),
        s.scanned > 0
            ? 100.0 * static_cast<double>(pruned) / static_cast<double>(s.scanned)
            : 0.0);
    if (!s.candidates.empty()) {
      out += util::format("  %-28s %12s\n", "candidate", "predicted");
      for (const auto& [config, predicted] : s.candidates) {
        out += util::format("  %-28s %12.2f\n", config.c_str(), predicted);
      }
    }
    out += '\n';
  }

  if (analysis.counter_prune.has_value()) {
    const CounterPruneAnalysis& cp = *analysis.counter_prune;
    out += util::format("bottleneck accounting (counter-prune, margin %.2f)\n",
                        cp.margin);
    if (cp.skipped > 0) {
      out += util::format(
          "  %llu of %llu pruned before their first invocation "
          "(calibrated analytic bound)\n",
          static_cast<unsigned long long>(cp.skipped),
          static_cast<unsigned long long>(cp.pruned));
    }
    for (const auto& [cls, count] : cp.by_class) {
      out += util::format("  %-10s %6llu pruned\n", cls.c_str(),
                          static_cast<unsigned long long>(count));
    }
    if (cp.widened > 0) {
      out += util::format(
          "  %llu bound%s multiplex-widened (scaled counters)\n",
          static_cast<unsigned long long>(cp.widened),
          cp.widened == 1 ? "" : "s");
    }
    out += util::format("  %-28s %-10s %12s %10s %12s\n", "config", "class",
                        "bound", "OI-meas", "incumbent");
    for (const auto& entry : cp.entries) {
      out += util::format("  %-28s %-10s %12.2f %s %s\n", entry.config.c_str(),
                          entry.cls.c_str(), entry.bound,
                          intensity_cell(entry.oi).c_str(),
                          entry.incumbent.has_value()
                              ? util::format("%12.2f", *entry.incumbent).c_str()
                              : "           -");
    }
    out += '\n';
  }

  if (!analysis.rounds.empty()) {
    out += "racing rounds\n";
    for (const auto& round : analysis.rounds) {
      out += util::format(
          "  round %-3llu survivors %llu -> %llu (%llu eliminated, %llu "
          "finished)\n",
          static_cast<unsigned long long>(round.epoch),
          static_cast<unsigned long long>(round.survivors_before),
          static_cast<unsigned long long>(round.survivors_after),
          static_cast<unsigned long long>(round.eliminated),
          static_cast<unsigned long long>(round.finished));
    }
    out += '\n';
  }

  if (journal.scheduler.has_value()) {
    const core::SchedulerStats& sched = *journal.scheduler;
    out += util::format("scheduler (%s, %llu workers, lookahead %llu)\n",
                        sched.mode.c_str(),
                        static_cast<unsigned long long>(sched.workers),
                        static_cast<unsigned long long>(sched.lookahead));
    out += util::format(
        "  %llu tasks, %llu steals, %llu parks, idle fraction %.3f\n",
        static_cast<unsigned long long>(sched.tasks),
        static_cast<unsigned long long>(sched.steals),
        static_cast<unsigned long long>(sched.parks), sched.idle_fraction());
    out += util::format(
        "  span %.3f ms, busy %.3f ms, commit wait %.3f ms\n",
        static_cast<double>(sched.span_ns) * 1e-6,
        static_cast<double>(sched.busy_ns) * 1e-6,
        static_cast<double>(sched.commit_wait_ns) * 1e-6);
    out += '\n';
  }

  out += "stop-condition accounting (iteration level)\n";
  for (const auto& [reason, accounting] : analysis.by_reason) {
    out += util::format("  %-14s %6llu invocations %10llu iterations\n",
                        reason.c_str(),
                        static_cast<unsigned long long>(accounting.decisions),
                        static_cast<unsigned long long>(accounting.iterations));
  }
  out += util::format("  %-14s %6llu invocations %10llu iterations\n", "total",
                      static_cast<unsigned long long>(analysis.total_invocations),
                      static_cast<unsigned long long>(analysis.total_iterations));

  const std::uint64_t budget =
      analysis.max_invocation_iterations * analysis.total_invocations;
  if (budget > 0) {
    out += util::format(
        "\nprune savings vs fixed %llu-iteration invocations: %llu of %llu "
        "iterations not run (%.1f%%)\n",
        static_cast<unsigned long long>(analysis.max_invocation_iterations),
        static_cast<unsigned long long>(analysis.saved_iterations),
        static_cast<unsigned long long>(budget),
        100.0 * static_cast<double>(analysis.saved_iterations) /
            static_cast<double>(budget));
  }

  if (analysis.scaled_perf_invocations > 0) {
    out += util::format(
        "\nWARNING: counters were multiplexed in %llu invocation%s — counts "
        "are scaled estimates (value x enabled/running), not exact; close "
        "other perf users or drop counters to avoid multiplexing\n",
        static_cast<unsigned long long>(analysis.scaled_perf_invocations),
        analysis.scaled_perf_invocations == 1 ? "" : "s");
  }

  if (!analysis.inconsistencies.empty()) {
    out += "\nWARNING: journal is internally inconsistent\n";
    for (const auto& line : analysis.inconsistencies) {
      out += "  " + line + '\n';
    }
  }
  return out;
}

const char* schema_reference() {
  return R"(journal schema (JSONL, one record per line; docs/observability.md)

Every event carries the logical sort key {"epoch","ord","inv","rank"} —
no timestamps, so simulator journals are bit-identical run-to-run and
across worker counts.  Record types ("t" field):

  provenance  optional first line, before even the run header: machine
              environment the run executed under ("cpu","uarch",
              "logical_cpus","cores","smt","numa","governor",
              "freq_min_khz","freq_max_khz","turbo","thp","aslr",
              "compiler","build") and its stable hash "env" — the value
              checkpoints record to refuse cross-environment resume
  run         header: {"v":1,"benchmark","metric","strategy"}; carries
              "perf_degraded" (the sampler's unavailability reason, once
              per run) when counters were requested but could not be
              opened — the reason OI-meas columns are missing
  incumbent   a value became the schedule's best ("value"; "cfg" when a
              specific configuration produced it; rank 0 = frozen at a
              racing block boundary, rank 7 = after a config finished)
  stop        a stop condition ended a loop: "level" iteration|invocation,
              "reason" (max-time|max-count|converged|pruned-by-best|
              counter-bound|none),
              "count","mean","ci":[lo,hi]|null at that instant,
              "kernel_s" consumed (iteration level), "incumbent" in effect
  invocation  one completed invocation span: "iterations","kernel_s",
              "setup_s","wall_s","det" (backend-accounted, deterministic),
              "mean","stddev","rising", analytic "flops"/"bytes", optional
              "perf" {cycles,instructions,llc_misses; plus "scaled" with
              "time_enabled_ns"/"time_running_ns" when the PMU multiplexed
              the group and the counts are extrapolated} and "arena" delta
  config-done a configuration left the schedule: final "reason","value",
              "pruned", lifetime "iterations","kernel_s","setup_s"
  elimination racing removed a survivor: "basis" iteration-ci|
              invocation-ci|inner-prune, its "mean"/"ci", the "leader"
              ordinal and "leader_ci" it lost to
  round       racing round summary: "before","after","eliminated","finished"
  resume      a checkpointed session restored "restored" configurations
  surrogate-fit
              surrogate model trained on the seed batch.  The summary
              record (no "cfg") carries "samples","r2","scale" (log|raw);
              per-seed records carry "cfg","predicted","measured" — the
              model's own training-set reproduction, pinned in the journal
  prune-batch model-guided pruning of the unvisited space.  The summary
              record (no "cfg") carries "scanned","kept","pruned"; one
              record per kept candidate carries "cfg","predicted"
  counter-prune
              the bottleneck classifier stopped a configuration early:
              "cfg", "class" (compute|dram|latency), the class roofline
              "bound" in metric units, the policy "margin", measured "oi"
              (FLOP/byte, null for compute-bound), "widened" (bound
              inflated by the multiplex scaling factor), the "incumbent"
              it could not beat, and the invocation "count"/"mean" so far
  scheduler   parallel-pipeline accounting, written just before the summary
              and only on request (--sched-stats): "mode" (always
              "pipeline"), "workers","lookahead","tasks","steals","parks",
              "idle_ns","busy_ns","commit_wait_ns","span_ns",
              "idle_fraction".  The one record carrying wall-clock numbers —
              journals that include it are exempt from the bit-identity
              guarantee
  summary     footer totals: "configs","pruned","invocations","iterations",
              "best" — rooftune trace cross-checks these against the
              per-record sums and flags any mismatch

Telemetry never enters the journal: --telemetry writes a sidecar
(<trace>.telemetry.jsonl) with per-invocation "span" records (frequency,
temperature, RAPL energy; deterministic on simulated backends), wall-clock
"host" samples from the background sampler (native runs only), and a
"sampler" footer — so the journal's bytes are identical with or without
telemetry attached.
)";
}

}  // namespace rooftune::trace

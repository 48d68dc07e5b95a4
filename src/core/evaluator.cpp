#include "core/evaluator.hpp"

#include <cmath>
#include <string>

#include "core/session.hpp"
#include "util/profiler.hpp"

namespace rooftune::core {

namespace {

/// Arena counter delta over one invocation, when the backend has an arena.
std::optional<util::ArenaStats> arena_delta(
    const std::optional<util::ArenaStats>& before,
    const std::optional<util::ArenaStats>& after) {
  if (!before.has_value() || !after.has_value()) return std::nullopt;
  util::ArenaStats delta;
  delta.leases = after->leases - before->leases;
  delta.slab_hits = after->slab_hits - before->slab_hits;
  delta.slab_misses = after->slab_misses - before->slab_misses;
  delta.allocations = after->allocations - before->allocations;
  delta.bytes_leased = after->bytes_leased - before->bytes_leased;
  delta.bytes_reserved = after->bytes_reserved;  // high-water, not a counter
  delta.pages_touched = after->pages_touched - before->pages_touched;
  return delta;
}

/// Fill the mean/CI-at-this-instant fields of a StopDecision event from
/// running moments (CI only once two samples exist — below that the
/// interval is degenerate and the journal records null bounds).
void fill_decision_stats(TraceEvent& event, const stats::OnlineMoments& moments,
                         const StopRules& rules) {
  event.count = moments.count();
  event.mean = moments.mean();
  if (moments.count() >= 2) {
    const auto ci = rules.interval(moments);
    event.have_ci = true;
    event.ci_lower = ci.lower;
    event.ci_upper = ci.upper;
  }
}

/// Classify this invocation's counter signature and convert the roofline
/// bound into the backend's metric, while the backend is still in scope.
/// GFLOP/s metrics take the bound directly; byte metrics scale by the
/// kernel's analytic bytes/flops ratio (the bound says "at most X GFLOP/s",
/// and every flop moves bytes/flops bytes).  Backends without analytic
/// work counts (pipe) yield no bound — the policy never prunes them.
void classify_invocation(InvocationResult& result, Backend& backend,
                         const TunerOptions& options) {
  if (!result.counters.has_value()) return;
  const auto flops_per_iter = backend.flops_per_iteration();
  if (!flops_per_iter.has_value() || !(*flops_per_iter > 0.0)) return;
  const BottleneckClassifier classifier(options.counter_peak_gflops,
                                        options.counter_dram_gbps);
  const double flops =
      *flops_per_iter * static_cast<double>(result.iterations);
  result.bottleneck =
      classifier.classify(*result.counters, flops, result.kernel_time.value);
  if (result.bottleneck->cls == BottleneckClass::Unknown ||
      !std::isfinite(result.bottleneck->bound_gflops)) {
    return;
  }
  const std::string metric = backend.metric_name();
  if (metric.find("FLOP") != std::string::npos) {
    result.counter_bound = result.bottleneck->bound_gflops;
    return;
  }
  const auto bytes_per_iter = backend.bytes_per_iteration();
  if (!bytes_per_iter.has_value()) return;
  result.counter_bound =
      result.bottleneck->bound_gflops * (*bytes_per_iter / *flops_per_iter);
}

}  // namespace

bool counter_prune_armed(const TunerOptions& options) {
  return options.counter_prune && options.counter_peak_gflops > 0.0 &&
         options.counter_dram_gbps > 0.0;
}

TraceEvent make_counter_prune_event(const InvocationResult& invocation,
                                    const ConfigResult& result,
                                    const TunerOptions& options,
                                    std::optional<double> incumbent) {
  TraceEvent event;
  event.kind = TraceEvent::Kind::CounterPrune;
  event.config = result.config;
  event.basis = to_string(invocation.bottleneck->cls);
  event.bound = *invocation.counter_bound;
  event.margin = options.counter_prune_margin;
  event.oi = invocation.bottleneck->oi;
  event.widened = invocation.bottleneck->widened;
  event.incumbent = incumbent;
  event.count = result.outer_moments.count();
  event.mean = result.outer_moments.mean();
  return event;
}

std::optional<CounterHint> counter_hint(const Backend& backend,
                                        const Configuration& config,
                                        const TunerOptions& options) {
  if (!counter_prune_armed(options)) return std::nullopt;
  if (backend.metric_name().find("FLOP") == std::string::npos) {
    return std::nullopt;
  }
  const auto oi = backend.analytic_intensity(config);
  if (!oi.has_value() || !(*oi > 0.0)) return std::nullopt;
  CounterHint hint;
  hint.oi = *oi;
  const double memory_roof = options.counter_dram_gbps * *oi;
  hint.bound_metric = std::min(options.counter_peak_gflops, memory_roof);
  hint.cls = memory_roof < options.counter_peak_gflops
                 ? BottleneckClass::Dram
                 : BottleneckClass::Compute;
  return hint;
}

const char* to_string(SearchStrategy strategy) {
  switch (strategy) {
    case SearchStrategy::Exhaustive: return "exhaustive";
    case SearchStrategy::Racing: return "racing";
    case SearchStrategy::Surrogate: return "surrogate";
  }
  return "?";
}

void emit_incumbent_update(TraceSink* trace, std::uint64_t epoch,
                           std::uint64_t ordinal, const ConfigResult& result) {
  if (trace == nullptr) return;
  TraceEvent event;
  event.kind = TraceEvent::Kind::IncumbentUpdate;
  event.epoch = epoch;
  event.config_ordinal = ordinal;
  event.invocation = result.invocations.empty() ? 0 : result.invocations.size() - 1;
  event.rank = 7;
  event.config = result.config;
  event.value = result.value();
  trace->emit(event);
}

double ConfigResult::value() const {
  stats::OnlineMoments completed;
  for (const auto& inv : invocations) {
    if (inv.stop_reason != StopReason::PrunedByBest) completed.add(inv.mean());
  }
  return completed.count() > 0 ? completed.mean() : outer_moments.mean();
}

bool ConfigResult::pruned() const {
  if (outer_stop == StopReason::PrunedByBest) return true;
  if (outer_stop == StopReason::CounterBound) return true;
  for (const auto& inv : invocations) {
    if (inv.stop_reason == StopReason::PrunedByBest) return true;
  }
  return false;
}

InvocationResult run_invocation(Backend& backend, const Configuration& config,
                                std::uint64_t invocation_index,
                                const TunerOptions& options,
                                std::optional<double> incumbent,
                                const TraceContext& trace_ctx) {
  if (options.checkpoint != nullptr) {
    if (auto logged = options.checkpoint->replay(trace_ctx, invocation_index, options.trace)) {
      backend.replay_invocation(config);
      return std::move(*logged);
    }
  }
  const StopRules rules = StopRules::inner(options);
  InvocationResult result;
  stats::TrendDetector trend(16);

  std::optional<util::ArenaStats> arena_before;
  if (options.trace) arena_before = backend.arena_stats();

  // Host-clock spans for the profile timeline; the backend-reported
  // setup/kernel seconds (which on simulated machines are simulated time)
  // ride along as span weights so `rooftune profile` can cross-check the
  // profile's sums against the report's.
  util::ProfileSpan setup_span(util::ProfileCategory::Setup,
                               trace_ctx.config_ordinal);
  const util::Seconds start = backend.clock().now();
  backend.begin_invocation(config, invocation_index);
  result.setup_time += backend.clock().now() - start;
  setup_span.finish();

  if (options.trace) options.trace->kernel_phase_begin();
  util::ProfileSpan kernel_span(util::ProfileCategory::Kernel,
                                trace_ctx.config_ordinal);

  // Adaptive timing batches: while the per-iteration time is comparable to
  // the cost of reading the clock, time geometrically growing groups of
  // iterations with one timer pair and record each group's mean as one
  // sample — the timer bias amortizes away and syscall pressure drops.
  // With a zero-overhead clock `batch` stays 1 and this loop is exactly
  // the per-iteration schedule of the paper.
  const double overhead = backend.clock().overhead().value;
  const std::uint64_t max_batch = std::max<std::uint64_t>(1, options.max_timing_batch);
  std::uint64_t batch = 1;
  for (;;) {
    double batch_value;
    if (batch == 1) {
      const Sample sample = backend.run_iteration();
      batch_value = sample.value;
      result.kernel_time += sample.kernel_time;
      ++result.iterations;
    } else {
      // Never overshoot the iteration cap; the time budget is checked per
      // batch, same as the per-iteration loop checks it per sample.
      std::uint64_t k = batch;
      if (options.iterations > result.iterations) {
        k = std::min(k, options.iterations - result.iterations);
      }
      const BatchSample group = backend.run_batch(k);
      batch_value = group.value;
      result.kernel_time += group.kernel_time;
      result.iterations += group.count;
    }
    result.moments.add(batch_value);
    trend.add(batch_value);

    const StopReason reason = rules.check(result.moments, result.kernel_time,
                                          result.iterations, incumbent, trend);
    if (reason != StopReason::None) {
      result.stop_reason = reason;
      break;
    }

    if (overhead > 0.0 && batch < max_batch && result.iterations > 0) {
      const double per_iteration =
          result.kernel_time.value / static_cast<double>(result.iterations);
      if (per_iteration < options.batch_overhead_ratio * overhead) {
        batch = std::min<std::uint64_t>(batch * 2, max_batch);
      }
    }
  }

  kernel_span.finish(result.kernel_time.value);
  if (options.trace) options.trace->kernel_phase_end();

  util::ProfileSpan teardown_span(util::ProfileCategory::Setup,
                                  trace_ctx.config_ordinal);
  const util::Seconds teardown_start = backend.clock().now();
  backend.end_invocation();
  result.setup_time += backend.clock().now() - teardown_start;
  result.trend_rising = trend.rising();
  result.wall_time = backend.clock().now() - start;
  if (const auto timing = backend.last_invocation_timing()) {
    // Backend-accounted durations: accumulated from zero per invocation,
    // independent of the clock's base, so per-config and run totals stay
    // bit-identical across worker assignments (see backend.hpp).
    result.setup_time = timing->setup;
    result.wall_time = timing->wall;
  }
  // The invocation's whole backend-reported setup time weights the
  // teardown span (one weighted setup record per invocation, so weight
  // sums match the report's setup total exactly).
  teardown_span.finish(result.setup_time.value);

  // Counter signature of the kernel phase: the backend's own model first
  // (simulated, deterministic), else whatever the sink's sampler read on
  // this thread (real hardware).  Classified here, while the backend's
  // analytic work counts and metric are in scope, so the schedulers only
  // compare the stored bound against their incumbents.
  result.counters = backend.last_invocation_counters();
  if (!result.counters.has_value() && options.trace) {
    result.counters = options.trace->kernel_phase_counters();
  }
  if (counter_prune_armed(options)) {
    classify_invocation(result, backend, options);
  }

  if (options.trace) {
    // The stop decision that ended the iteration loop, with the CI at that
    // instant, followed by the invocation span itself.
    TraceEvent stop;
    stop.kind = TraceEvent::Kind::StopDecision;
    stop.epoch = trace_ctx.epoch;
    stop.config_ordinal = trace_ctx.config_ordinal;
    stop.invocation = invocation_index;
    stop.rank = 1;
    stop.config = config;
    stop.reason = result.stop_reason;
    stop.outer_level = false;
    stop.accumulated_s = result.kernel_time.value;
    stop.incumbent = incumbent;
    fill_decision_stats(stop, result.moments, rules);
    options.trace->emit(stop);

    TraceEvent span;
    span.kind = TraceEvent::Kind::Invocation;
    span.epoch = trace_ctx.epoch;
    span.config_ordinal = trace_ctx.config_ordinal;
    span.invocation = invocation_index;
    span.rank = 2;
    span.config = config;
    span.reason = result.stop_reason;
    span.iterations = result.iterations;
    span.kernel_s = result.kernel_time.value;
    span.setup_s = result.setup_time.value;
    span.wall_s = result.wall_time.value;
    span.deterministic_timing = backend.last_invocation_timing().has_value();
    span.mean = result.moments.mean();
    span.stddev = result.moments.stddev();
    span.trend_rising = result.trend_rising;
    span.incumbent = incumbent;
    const double n = static_cast<double>(result.iterations);
    if (const auto flops = backend.flops_per_iteration()) span.flops = *flops * n;
    if (const auto bytes = backend.bytes_per_iteration()) span.bytes = *bytes * n;
    span.arena_delta = arena_delta(arena_before, backend.arena_stats());
    // Backend-modelled counters are serialized with the span (the sink's
    // own sampled counters attach journal-side, so they are not repeated).
    span.counters = backend.last_invocation_counters();
    // Backend-modelled machine telemetry (frequency/energy over the span);
    // the journal forwards it to the sidecar, never into the journal body.
    span.telemetry = backend.last_invocation_telemetry();
    options.trace->emit(span);
  }
  if (options.checkpoint != nullptr) {
    options.checkpoint->append(trace_ctx.config_ordinal, invocation_index, result);
  }
  return result;
}

ConfigResult run_configuration(Backend& backend, const Configuration& config,
                               const TunerOptions& options,
                               std::optional<double> incumbent,
                               const TraceContext& trace_ctx) {
  const StopRules rules = StopRules::outer(options);
  ConfigResult result;
  result.config = config;
  stats::TrendDetector outer_trend(8);

  std::uint64_t last_inv = 0;
  for (std::uint64_t inv = 0;; ++inv) {
    last_inv = inv;
    InvocationResult invocation =
        run_invocation(backend, config, inv, options, incumbent, trace_ctx);
    result.total_iterations += invocation.iterations;
    result.total_time += invocation.wall_time;
    result.total_setup_time += invocation.setup_time;
    result.total_kernel_time += invocation.kernel_time;
    result.outer_moments.add(invocation.mean());
    outer_trend.add(invocation.mean());
    // An inner prune ends only the current invocation (the benchmark
    // program exits early); with "Inner" alone the invocation loop keeps
    // re-launching the program — each launch gets pruned again after a few
    // iterations.  The "Outer" optimization additionally abandons the
    // remaining invocations once the configuration has shown it cannot win
    // — that separation is exactly the paper's Inner vs. Outer distinction
    // and the source of Outer's extra speedup (Tables VIII–XI).
    const bool inner_pruned = invocation.stop_reason == StopReason::PrunedByBest;
    result.invocations.push_back(std::move(invocation));

    if (options.outer_prune && inner_pruned) {
      result.outer_stop = StopReason::PrunedByBest;
      break;
    }

    // Counter-guided prune: the roofline bound from this invocation's
    // counter signature is rate-independent (OI is a ratio of counts), so
    // unlike the CI conditions it needs no settled samples — a hopeless
    // bottleneck class dies here after its first invocations, before the
    // statistics spend any more.  The completed invocations stay in the
    // result, so value() remains an unbiased mean.
    if (counter_prune_armed(options)) {
      const InvocationResult& last = result.invocations.back();
      const CounterPrunePolicy policy{options.counter_prune_margin,
                                      options.counter_prune_window};
      if (last.counter_bound.has_value() &&
          policy.should_prune(*last.bottleneck, *last.counter_bound, incumbent,
                              inv + 1)) {
        result.outer_stop = StopReason::CounterBound;
        util::Profiler::instance().instant(util::ProfileCategory::CounterPrune,
                                           trace_ctx.config_ordinal);
        if (options.trace) {
          TraceEvent event =
              make_counter_prune_event(last, result, options, incumbent);
          event.epoch = trace_ctx.epoch;
          event.config_ordinal = trace_ctx.config_ordinal;
          event.invocation = inv;
          event.rank = 3;  // same cell as the outer stop; emitted first
          options.trace->emit(event);
        }
        break;
      }
    }

    // Invocation loops have no kernel-time budget.
    const StopReason reason = rules.check(result.outer_moments, util::Seconds{0.0},
                                          inv + 1, incumbent, outer_trend);
    if (reason != StopReason::None) {
      result.outer_stop = reason;
      break;
    }
  }

  if (options.trace) {
    // The invocation-loop decision that retired the configuration, then the
    // configuration's exit record.  Both anchor to the last invocation so
    // the merged journal interleaves them after its span.
    TraceEvent stop;
    stop.kind = TraceEvent::Kind::StopDecision;
    stop.epoch = trace_ctx.epoch;
    stop.config_ordinal = trace_ctx.config_ordinal;
    stop.invocation = last_inv;
    stop.rank = 3;
    stop.config = config;
    stop.reason = result.outer_stop;
    stop.outer_level = true;
    stop.incumbent = incumbent;
    fill_decision_stats(stop, result.outer_moments, rules);
    options.trace->emit(stop);

    TraceEvent done;
    done.kind = TraceEvent::Kind::ConfigDone;
    done.epoch = trace_ctx.epoch;
    done.config_ordinal = trace_ctx.config_ordinal;
    done.invocation = last_inv;
    done.rank = 4;
    done.config = config;
    done.reason = result.outer_stop;
    done.iterations = result.total_iterations;
    done.kernel_s = result.total_kernel_time.value;
    done.setup_s = result.total_setup_time.value;
    done.value = result.value();
    done.pruned = result.pruned();
    options.trace->emit(done);
  }
  return result;
}

}  // namespace rooftune::core

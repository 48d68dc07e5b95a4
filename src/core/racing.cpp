#include "core/racing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace rooftune::core {

bool RacingScheduler::State::active() const {
  for (const auto& entry : entries) {
    if (entry.status == Status::Racing) return true;
  }
  return false;
}

RacingScheduler::RacingScheduler(TunerOptions options)
    : options_(options), rules_(StopRules::outer(options_)) {
  // A racing round grants a sample batch, not a converged evaluation:
  // invocations run under a reduced iteration cap (racing_iterations) so a
  // round over the whole population costs a fraction of one sequential
  // pass; precision comes from later rounds, which only survivors reach.
  invocation_options_ = options_;
  if (options_.racing_iterations > 0) {
    invocation_options_.iterations =
        std::min(options_.iterations, options_.racing_iterations);
  }
}

RacingScheduler::State RacingScheduler::init(
    std::vector<Configuration> configs) const {
  State state;
  state.entries.reserve(configs.size());
  for (auto& config : configs) {
    Entry entry;
    entry.result.config = std::move(config);
    state.entries.push_back(std::move(entry));
  }
  return state;
}

std::vector<std::size_t> RacingScheduler::survivors(const State& state) {
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < state.entries.size(); ++i) {
    if (state.entries[i].status == Status::Racing &&
        state.entries[i].result.invocations.size() == state.round) {
      indices.push_back(i);
    }
  }
  return indices;
}

std::vector<std::vector<std::size_t>> RacingScheduler::round_blocks(
    const State& state) {
  const auto indices = survivors(state);
  std::vector<std::vector<std::size_t>> blocks;
  for (std::size_t lo = 0; lo < indices.size(); lo += kBlock) {
    const std::size_t hi = std::min(indices.size(), lo + kBlock);
    blocks.emplace_back(indices.begin() + static_cast<std::ptrdiff_t>(lo),
                        indices.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return blocks;
}

std::optional<double> RacingScheduler::frozen_incumbent(const State& state) {
  std::optional<double> best;
  for (const auto& entry : state.entries) {
    if (entry.result.invocations.empty()) continue;
    const double value = entry.result.value();
    if (!best.has_value() || value > *best) best = value;
  }
  return best;
}

void RacingScheduler::apply_counter_skips(State& state,
                                          const std::vector<std::size_t>& block,
                                          std::optional<double> incumbent,
                                          const Backend& backend) const {
  if (!incumbent.has_value() || !counter_prune_armed(options_)) return;
  // Calibration: walk entries in config order and count invocations whose
  // measured OI matched the backend's prediction.  Stops at the target, so
  // once calibrated the scan touches only the first few entries; when the
  // backend has no predictions (or a PMU's traffic disagrees with the
  // analytic model) it never arms and no entry is ever skipped unseen.
  std::uint64_t verified = 0;
  for (const auto& entry : state.entries) {
    if (verified >= kCounterCalibration) break;
    if (entry.result.invocations.empty()) continue;
    const auto predicted = backend.analytic_intensity(entry.result.config);
    if (!predicted.has_value() || !(*predicted > 0.0)) continue;
    for (const auto& inv : entry.result.invocations) {
      if (!inv.bottleneck.has_value() || !inv.bottleneck->oi.has_value()) {
        continue;
      }
      if (std::abs(*inv.bottleneck->oi - *predicted) <=
          kOiTolerance * *predicted) {
        ++verified;
      }
    }
  }
  if (verified < kCounterCalibration) return;

  const CounterPrunePolicy policy{options_.counter_prune_margin,
                                  options_.counter_prune_window};
  for (const std::size_t i : block) {
    Entry& entry = state.entries[i];
    if (entry.status != Status::Racing || !entry.result.invocations.empty()) {
      continue;
    }
    const auto hint = counter_hint(backend, entry.result.config, options_);
    if (!hint.has_value()) continue;
    if (!policy.should_skip(hint->bound_metric, incumbent)) continue;
    entry.result.outer_stop = StopReason::CounterBound;
    entry.status = Status::Eliminated;
    if (options_.trace) {
      // The skip replaces the entry's would-be invocation records at the
      // same ordinal slot (rank 1, where its stop decision would have
      // sorted), followed by the standard exit record.
      TraceEvent event;
      event.kind = TraceEvent::Kind::CounterPrune;
      event.epoch = state.round;
      event.config_ordinal = i;
      event.invocation = state.round;
      event.rank = 1;
      event.config = entry.result.config;
      event.basis = to_string(hint->cls);
      event.bound = hint->bound_metric;
      event.margin = options_.counter_prune_margin;
      event.oi = hint->oi;
      event.widened = false;
      event.incumbent = incumbent;
      event.count = 0;
      event.mean = 0.0;
      options_.trace->emit(event);

      TraceEvent done;
      done.kind = TraceEvent::Kind::ConfigDone;
      done.epoch = state.round;
      done.config_ordinal = i;
      done.invocation = state.round;
      done.rank = 4;
      done.config = entry.result.config;
      done.reason = entry.result.outer_stop;
      done.iterations = 0;
      done.kernel_s = 0.0;
      done.setup_s = 0.0;
      done.value = entry.result.value();
      done.pruned = true;
      options_.trace->emit(done);
    }
  }
}

InvocationResult RacingScheduler::run_detached_invocation(
    Backend& backend, const Configuration& config,
    std::uint64_t invocation_index, std::optional<double> incumbent,
    std::size_t ordinal) const {
  // Racing epoch = round number = this invocation's index (entries march in
  // lockstep), so the journal groups each round's spans together.
  TraceContext ctx;
  ctx.epoch = invocation_index;
  ctx.config_ordinal = ordinal;
  return run_invocation(backend, config, invocation_index,
                        invocation_options_, incumbent, ctx);
}

void RacingScheduler::commit_invocation(Entry& entry,
                                        InvocationResult invocation) {
  entry.result.total_iterations += invocation.iterations;
  entry.result.outer_moments.add(invocation.mean());
  entry.result.total_time += invocation.wall_time;
  entry.result.total_setup_time += invocation.setup_time;
  entry.result.total_kernel_time += invocation.kernel_time;
  entry.trend.add(invocation.mean());
  entry.result.invocations.push_back(std::move(invocation));
}

bool RacingScheduler::conclude_round(State& state) const {
  // The round that just ran: its invocations carry this index, and every
  // event below sorts under it as the epoch.
  const std::uint64_t round = state.round;
  ++state.round;

  std::vector<Status> before;
  std::uint64_t racing_before = 0;
  if (options_.trace) {
    before.reserve(state.entries.size());
    for (const auto& entry : state.entries) {
      before.push_back(entry.status);
      if (entry.status == Status::Racing) ++racing_before;
    }
  }
  const auto emit_elimination = [&](std::size_t ordinal, const Entry& entry,
                                    const char* basis,
                                    const stats::OnlineMoments& moments,
                                    const std::optional<stats::ConfidenceInterval>& own_ci,
                                    std::optional<std::size_t> leader,
                                    const std::optional<stats::ConfidenceInterval>& leader_ci) {
    if (!options_.trace) return;
    TraceEvent event;
    event.kind = TraceEvent::Kind::Elimination;
    event.epoch = round;
    event.config_ordinal = ordinal;
    event.invocation = round;
    event.rank = 5;
    event.config = entry.result.config;
    event.basis = basis;
    event.count = moments.count();
    event.mean = moments.mean();
    if (own_ci.has_value()) {
      event.have_ci = true;
      event.ci_lower = own_ci->lower;
      event.ci_upper = own_ci->upper;
    }
    if (leader.has_value()) {
      event.leader_ordinal = *leader;
      if (leader_ci.has_value()) {
        event.leader_ci_lower = leader_ci->lower;
        event.leader_ci_upper = leader_ci->upper;
      }
    }
    options_.trace->emit(event);
  };

  // Per-entry stops first, in config order (mirrors run_configuration's
  // check order: pruning, then the invocation cap, then convergence).
  for (std::size_t entry_index = 0; entry_index < state.entries.size();
       ++entry_index) {
    Entry& entry = state.entries[entry_index];
    if (entry.status != Status::Racing) continue;
    ConfigResult& result = entry.result;
    // An inner-pruned invocation exited mid-benchmark against the frozen
    // incumbent: the configuration has shown it cannot win, which under
    // racing always ends its participation (the exhaustive scheduler needs
    // outer_prune to draw the same conclusion; racing *is* that logic).
    if (!result.invocations.empty() &&
        result.invocations.back().stop_reason == StopReason::PrunedByBest) {
      result.outer_stop = StopReason::PrunedByBest;
      entry.status = Status::Eliminated;
      emit_elimination(entry_index, entry, "inner-prune", result.outer_moments,
                       std::nullopt, std::nullopt, std::nullopt);
      continue;
    }
    if (result.invocations.size() >= options_.invocations) {
      result.outer_stop = StopReason::MaxCount;
      entry.status = Status::Finished;
      continue;
    }
    if (rules_.converged(result.outer_moments)) {
      result.outer_stop = StopReason::Converged;
      entry.status = Status::Finished;
    }
  }

  // Population-wide CI elimination against the leader.  The leader is the
  // best value() over everything still in contention (first
  // strictly-greater wins, same tie-breaking as the final reduction).
  std::optional<std::size_t> leader;
  for (std::size_t i = 0; i < state.entries.size(); ++i) {
    const Entry& entry = state.entries[i];
    if (entry.status == Status::Eliminated || entry.result.invocations.empty()) {
      continue;
    }
    if (!leader.has_value() ||
        entry.result.value() > state.entries[*leader].result.value()) {
      leader = i;
    }
  }
  // Counter-guided prune, ahead of the CI machinery: the roofline bound
  // from a survivor's counter signature is warm-up-independent (OI is a
  // ratio of counts), so it can kill entries the CI elimination must carry
  // for rounds — trend_rising defers iteration-CI elimination, and the
  // invocation-level CI needs racing_min_invocations samples, while a
  // dram-bound signature is conclusive from round one.  Decisions use the
  // bound stored at invocation time, so they are identical for any worker
  // assignment and across checkpoint resume.
  if (leader.has_value() && counter_prune_armed(options_)) {
    const double leader_value = state.entries[*leader].result.value();
    const CounterPrunePolicy policy{options_.counter_prune_margin,
                                    options_.counter_prune_window};
    for (std::size_t i = 0; i < state.entries.size(); ++i) {
      Entry& entry = state.entries[i];
      if (i == *leader || entry.status != Status::Racing) continue;
      if (entry.result.invocations.empty()) continue;
      const InvocationResult& last = entry.result.invocations.back();
      if (!last.counter_bound.has_value()) continue;
      if (!policy.should_prune(*last.bottleneck, *last.counter_bound,
                               leader_value,
                               entry.result.invocations.size())) {
        continue;
      }
      entry.result.outer_stop = StopReason::CounterBound;
      entry.status = Status::Eliminated;
      if (options_.trace) {
        TraceEvent event =
            make_counter_prune_event(last, entry.result, options_, leader_value);
        event.epoch = round;
        event.config_ordinal = i;
        event.invocation = round;
        event.rank = 5;  // the round's elimination slot
        event.leader_ordinal = *leader;
        options_.trace->emit(event);
      }
    }
  }

  if (leader.has_value() && state.round == 1) {
    // First round: every entry holds exactly one sample batch, so the
    // invocation-level CI (which needs racing_min_invocations rounds) is not
    // available yet — but granting every loser several more launches just to
    // build one would cost more than the sequential schedule.  The iteration
    // samples inside the first batch already carry a CI; hopeless entries
    // are dropped on that, except when the batch was still trending upward
    // (warm-up not settled — its mean underestimates the configuration, so
    // elimination would be unsafe; see docs/racing.md).
    const auto& leader_inv = state.entries[*leader].result.invocations.front();
    const auto leader_ci = rules_.interval(leader_inv.moments);
    for (std::size_t i = 0; i < state.entries.size(); ++i) {
      Entry& entry = state.entries[i];
      if (i == *leader || entry.status != Status::Racing) continue;
      const auto& inv = entry.result.invocations.front();
      if (inv.trend_rising) continue;
      if (inv.moments.count() < options_.confidence_min_samples) continue;
      const auto ci = rules_.interval(inv.moments);
      if (ci.upper < leader_ci.lower) {
        entry.result.outer_stop = StopReason::PrunedByBest;
        entry.status = Status::Eliminated;
        emit_elimination(i, entry, "iteration-ci", inv.moments, ci, leader,
                         leader_ci);
      }
    }
  } else if (leader.has_value()) {
    const auto leader_ci =
        rules_.interval(state.entries[*leader].result.outer_moments);
    for (std::size_t i = 0; i < state.entries.size(); ++i) {
      Entry& entry = state.entries[i];
      if (i == *leader || entry.status != Status::Racing) continue;
      if (entry.result.outer_moments.count() < options_.racing_min_invocations) {
        continue;
      }
      // §VII: performance still improving (or the window cannot tell yet)
      // — hold off, the same guard the prune rule applies.
      if (rules_.prune_deferred(entry.trend)) continue;
      const auto ci = rules_.interval(entry.result.outer_moments);
      if (ci.upper < leader_ci.lower) {
        entry.result.outer_stop = StopReason::PrunedByBest;
        entry.status = Status::Eliminated;
        emit_elimination(i, entry, "invocation-ci", entry.result.outer_moments,
                         ci, leader, leader_ci);
      }
    }
  }

  if (options_.trace) {
    // Exit records for everything that left the race this round, then the
    // round transition summary (sorted past every per-config ordinal).
    std::uint64_t finished = 0;
    std::uint64_t eliminated = 0;
    for (std::size_t i = 0; i < state.entries.size(); ++i) {
      const Entry& entry = state.entries[i];
      if (before[i] != Status::Racing || entry.status == Status::Racing) {
        continue;
      }
      if (entry.status == Status::Finished) ++finished;
      if (entry.status == Status::Eliminated) ++eliminated;
      TraceEvent done;
      done.kind = TraceEvent::Kind::ConfigDone;
      done.epoch = round;
      done.config_ordinal = i;
      done.invocation = round;
      done.rank = 4;
      done.config = entry.result.config;
      done.reason = entry.result.outer_stop;
      done.iterations = entry.result.total_iterations;
      done.kernel_s = entry.result.total_kernel_time.value;
      done.setup_s = entry.result.total_setup_time.value;
      done.value = entry.result.value();
      done.pruned = entry.result.pruned();
      options_.trace->emit(done);
    }
    TraceEvent summary;
    summary.kind = TraceEvent::Kind::Round;
    summary.epoch = round;
    summary.config_ordinal = state.entries.size();
    summary.invocation = round;
    summary.rank = 6;
    summary.survivors_before = racing_before;
    summary.survivors_after = racing_before - finished - eliminated;
    summary.eliminated = eliminated;
    summary.finished = finished;
    options_.trace->emit(summary);
  }
  return state.active();
}

TuningRun RacingScheduler::finish(State state) {
  TuningRun run;
  run.results.reserve(state.entries.size());
  for (Entry& entry : state.entries) run.add(std::move(entry.result));
  return run;
}

}  // namespace rooftune::core

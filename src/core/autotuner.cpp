#include "core/autotuner.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/racing.hpp"
#include "core/surrogate.hpp"
#include "util/log.hpp"

namespace rooftune::core {

const ConfigResult& TuningRun::best() const {
  if (!best_index.has_value()) {
    throw std::logic_error("TuningRun::best: no configurations were evaluated");
  }
  return results[*best_index];
}

TuningRun Autotuner::run(Backend& backend) const {
  if (options_.strategy == SearchStrategy::Surrogate) {
    return SurrogateScheduler(options_).run(backend, space_);
  }
  const SpaceView view(space_, options_.order, options_.random_seed);
  if (options_.strategy == SearchStrategy::Racing) {
    // The race holds per-entry state for the whole population anyway, so
    // materializing its config list costs nothing extra.
    std::vector<Configuration> configs;
    configs.reserve(view.size());
    for (std::size_t i = 0; i < view.size(); ++i) configs.push_back(view.at(i));
    return RacingScheduler(options_).run(backend, std::move(configs));
  }
  return run_over(backend, view);
}

TuningRun Autotuner::run_random(Backend& backend, std::size_t budget) const {
  if (budget < space_.cardinality()) {
    // Draw through the index bijection: O(budget) work and memory instead
    // of shuffling a materialized O(|space|) configuration vector.
    return run_over(
        backend, SpaceView(space_, space_.sample_indices(budget, options_.random_seed)));
  }
  return run_over(backend, SpaceView(space_, SearchOrder::Random, options_.random_seed));
}

TuningRun Autotuner::run_coordinate_descent(
    Backend& backend, std::optional<Configuration> start) const {
  const auto& ranges = space_.ranges();
  if (ranges.empty()) return {};

  // Current position as per-dimension value indices.
  std::vector<std::size_t> position(ranges.size());
  if (start.has_value()) {
    for (std::size_t d = 0; d < ranges.size(); ++d) {
      const auto& values = ranges[d].values();
      const std::int64_t want = start->at(ranges[d].name());
      const auto it = std::find(values.begin(), values.end(), want);
      if (it == values.end()) {
        throw std::invalid_argument(
            "run_coordinate_descent: start value " + std::to_string(want) +
            " not in range '" + ranges[d].name() + "'");
      }
      position[d] = static_cast<std::size_t>(it - values.begin());
    }
  } else {
    for (std::size_t d = 0; d < ranges.size(); ++d) {
      position[d] = ranges[d].size() / 2;
    }
  }

  const auto config_at = [&](const std::vector<std::size_t>& pos) {
    std::vector<Parameter> params;
    params.reserve(ranges.size());
    for (std::size_t d = 0; d < ranges.size(); ++d) {
      params.push_back({ranges[d].name(), ranges[d].values()[pos[d]]});
    }
    return Configuration(std::move(params));
  };

  TuningRun run;
  std::optional<double> incumbent;
  std::map<Configuration, double> cache;

  // Evaluate (memoized); records full results only for fresh evaluations.
  const auto evaluate = [&](const Configuration& config) {
    if (const auto it = cache.find(config); it != cache.end()) return it->second;
    // Fresh-evaluation index doubles as the epoch: descent revisits cached
    // configurations without re-running them, so the journal only sees the
    // genuinely evaluated sequence.
    TraceContext ctx;
    ctx.epoch = run.results.size();
    ctx.config_ordinal = run.results.size();
    ConfigResult result =
        run_configuration(backend, config, options_, incumbent, ctx);
    run.total_iterations += result.total_iterations;
    run.total_invocations += result.invocations.size();
    run.total_time += result.total_time;
    run.total_setup_time += result.total_setup_time;
    run.total_kernel_time += result.total_kernel_time;
    if (result.pruned()) ++run.pruned_configs;
    const double value = result.value();
    cache.emplace(config, value);
    if (!incumbent.has_value() || value > *incumbent) {
      incumbent = value;
      run.best_index = run.results.size();
      if (options_.trace) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::IncumbentUpdate;
        event.epoch = ctx.epoch;
        event.config_ordinal = ctx.config_ordinal;
        event.invocation = result.invocations.empty()
                               ? 0
                               : result.invocations.size() - 1;
        event.rank = 7;
        event.config = config;
        event.value = value;
        options_.trace->emit(event);
      }
    }
    run.results.push_back(std::move(result));
    if (progress_) progress_(run.results.size() - 1, 0, run.results.back());
    return value;
  };

  double current = evaluate(config_at(position));
  for (bool improved = true; improved;) {
    improved = false;
    for (std::size_t d = 0; d < ranges.size(); ++d) {
      std::size_t best_index = position[d];
      double best_value = current;
      for (std::size_t i = 0; i < ranges[d].size(); ++i) {
        if (i == position[d]) continue;
        auto candidate = position;
        candidate[d] = i;
        const Configuration config = config_at(candidate);
        if (!space_.admits(config)) continue;
        const double value = evaluate(config);
        if (value > best_value) {
          best_value = value;
          best_index = i;
        }
      }
      if (best_index != position[d]) {
        position[d] = best_index;
        current = best_value;
        improved = true;
      }
    }
  }

  run.arena = backend.arena_stats();
  return run;
}

TuningRun Autotuner::run_over(Backend& backend, const SpaceView& view) const {
  TuningRun run;
  run.results.reserve(view.size());

  std::optional<double> incumbent;
  for (std::size_t i = 0; i < view.size(); ++i) {
    // Serial schedule: each configuration is its own epoch, so the journal
    // reads in exactly the order the tuner ran.  Configurations come off
    // the lazy view one at a time — nothing is materialized up front.
    const Configuration config = view.at(i);
    TraceContext ctx;
    ctx.epoch = i;
    ctx.config_ordinal = i;
    ConfigResult result =
        run_configuration(backend, config, options_, incumbent, ctx);
    run.total_iterations += result.total_iterations;
    run.total_invocations += result.invocations.size();
    run.total_time += result.total_time;
    run.total_setup_time += result.total_setup_time;
    run.total_kernel_time += result.total_kernel_time;
    if (result.pruned()) ++run.pruned_configs;

    const double value = result.value();
    if (!incumbent.has_value() || value > *incumbent) {
      incumbent = value;
      run.best_index = i;
      util::log_debug() << "new best " << config.to_string() << " = " << value;
      if (options_.trace) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::IncumbentUpdate;
        event.epoch = ctx.epoch;
        event.config_ordinal = ctx.config_ordinal;
        // Anchor to the last invocation so rank 7 sorts after ConfigDone.
        event.invocation = result.invocations.empty()
                               ? 0
                               : result.invocations.size() - 1;
        event.rank = 7;
        event.config = config;
        event.value = value;
        options_.trace->emit(event);
      }
    }
    run.results.push_back(std::move(result));
    if (progress_) progress_(i, view.size(), run.results.back());
  }

  run.arena = backend.arena_stats();
  return run;
}

}  // namespace rooftune::core

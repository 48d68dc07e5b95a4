#include "core/autotuner.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/pipeline.hpp"

namespace rooftune::core {

void TuningRun::add(ConfigResult result) {
  total_iterations += result.total_iterations;
  total_invocations += result.invocations.size();
  total_time += result.total_time;
  total_setup_time += result.total_setup_time;
  total_kernel_time += result.total_kernel_time;
  if (result.pruned()) ++pruned_configs;
  keep(std::move(result));
}

void TuningRun::merge(TuningRun other) {
  total_iterations += other.total_iterations;
  total_invocations += other.total_invocations;
  total_time += other.total_time;
  total_setup_time += other.total_setup_time;
  total_kernel_time += other.total_kernel_time;
  pruned_configs += other.pruned_configs;
  for (ConfigResult& result : other.results) keep(std::move(result));
}

void TuningRun::keep(ConfigResult result) {
  if (!best_index.has_value() || result.value() > results[*best_index].value()) {
    best_index = results.size();
  }
  results.push_back(std::move(result));
}

const ConfigResult& TuningRun::best() const {
  if (!best_index.has_value()) {
    throw std::logic_error("TuningRun::best: no configurations were evaluated");
  }
  return results[*best_index];
}

TuningRun Autotuner::run(Backend& backend) const {
  Backend* const backends[] = {&backend};
  Pipeline pipeline(options_, backends, /*pool=*/nullptr, /*wave=*/1, /*lookahead=*/1);
  if (options_.strategy == SearchStrategy::Surrogate) {
    return pipeline.surrogate(space_, SurrogateScheduler(options_).init(space_));
  }
  const SpaceView view(space_, options_.order, options_.random_seed);
  const auto config_at = [&view](std::size_t i) { return view.at(i); };
  if (options_.strategy == SearchStrategy::Racing) {
    return pipeline.racing(config_at, view.size());
  }
  return pipeline.exhaustive(config_at, view.size(), progress_);
}

TuningRun Autotuner::run_random(Backend& backend, std::size_t budget) const {
  // Draw through the index bijection: O(budget) work and memory instead of
  // shuffling a materialized O(|space|) configuration vector.
  const SpaceView view =
      budget < space_.cardinality()
          ? SpaceView(space_, space_.sample_indices(budget, options_.random_seed))
          : SpaceView(space_, SearchOrder::Random, options_.random_seed);
  Backend* const backends[] = {&backend};
  Pipeline pipeline(options_, backends, /*pool=*/nullptr, /*wave=*/1, /*lookahead=*/1);
  return pipeline.exhaustive([&view](std::size_t i) { return view.at(i); },
                             view.size(), progress_);
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
    run.add(run_configuration(backend, config, options_, incumbent, ctx));
    const double value = run.results.back().value();
    cache.emplace(config, value);
    if (run.best_index == run.results.size() - 1) {
      incumbent = value;
      emit_incumbent_update(options_.trace, ctx.epoch, ctx.config_ordinal,
                            run.results.back());
    }
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

}  // namespace rooftune::core

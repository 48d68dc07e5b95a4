#include "core/surrogate.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "util/log.hpp"

namespace rooftune::core {
namespace {

/// Per-dimension normalized value ranks of a cartesian index (mixed-radix
/// decode matching SearchSpace::config_at, without building a Configuration).
std::vector<double> normalized_ranks(const SearchSpace& space,
                                     std::uint64_t cartesian_index) {
  const auto& ranges = space.ranges();
  std::vector<double> x(ranges.size(), 0.0);
  std::uint64_t rest = cartesian_index;
  for (std::size_t d = ranges.size(); d > 0; --d) {
    const std::size_t size = ranges[d - 1].size();
    const std::uint64_t digit = rest % size;
    rest /= size;
    x[d - 1] = size > 1 ? static_cast<double>(digit) / static_cast<double>(size - 1)
                        : 0.0;
  }
  return x;
}

/// Gaussian elimination with partial pivoting; returns false on a
/// (numerically) singular system.  Deterministic: pivot choice is the first
/// maximal absolute value.
bool solve_linear(std::vector<std::vector<double>> a, std::vector<double> b,
                  std::vector<double>& out) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-12) return false;
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double f = a[row][col] / a[col][col];
      if (f == 0.0) continue;
      for (std::size_t k = col; k < n; ++k) a[row][k] -= f * a[col][k];
      b[row] -= f * b[col];
    }
  }
  out.assign(n, 0.0);
  for (std::size_t row = n; row > 0; --row) {
    const std::size_t r = row - 1;
    double sum = b[r];
    for (std::size_t k = r + 1; k < n; ++k) sum -= a[r][k] * out[k];
    out[r] = sum / a[r][r];
  }
  return true;
}

}  // namespace

std::size_t SurrogateModel::feature_count(std::size_t dims) {
  // [1, x_d, x_d², x_i·x_j for i<j]
  return 1 + 2 * dims + dims * (dims - 1) / 2;
}

std::vector<double> SurrogateModel::features(const SearchSpace& space,
                                             std::uint64_t cartesian_index) {
  const auto x = normalized_ranks(space, cartesian_index);
  std::vector<double> f;
  f.reserve(feature_count(x.size()));
  f.push_back(1.0);
  for (const double v : x) f.push_back(v);
  for (const double v : x) f.push_back(v * v);
  for (std::size_t i = 0; i < x.size(); ++i) {
    for (std::size_t j = i + 1; j < x.size(); ++j) f.push_back(x[i] * x[j]);
  }
  return f;
}

SurrogateModel SurrogateModel::fit(const SearchSpace& space,
                                   const std::vector<std::uint64_t>& indices,
                                   const std::vector<double>& values,
                                   double lambda) {
  if (indices.size() != values.size()) {
    throw std::invalid_argument("SurrogateModel::fit: indices/values size mismatch");
  }
  SurrogateModel model;
  const std::size_t p = feature_count(space.ranges().size());
  model.coef_.assign(p, 0.0);
  if (indices.empty()) return model;

  // The simulated response surfaces are Gaussian in log coordinates, so a
  // quadratic in log space is the natural basis; fall back to linear scale
  // when any target is non-positive.
  model.log_scale_ =
      std::all_of(values.begin(), values.end(), [](double v) { return v > 0.0; });
  std::vector<double> y(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    y[i] = model.log_scale_ ? std::log(values[i]) : values[i];
  }

  std::vector<std::vector<double>> f(indices.size());
  for (std::size_t i = 0; i < indices.size(); ++i) {
    f[i] = features(space, indices[i]);
  }

  // Normal equations FᵀF β = Fᵀy with an unpenalized intercept; the ridge
  // term escalates ×10 until the system solves (it always does for large
  // enough lambda, keeping the fit deterministic even on degenerate seeds).
  std::vector<std::vector<double>> ata(p, std::vector<double>(p, 0.0));
  std::vector<double> aty(p, 0.0);
  for (std::size_t i = 0; i < f.size(); ++i) {
    for (std::size_t r = 0; r < p; ++r) {
      aty[r] += f[i][r] * y[i];
      for (std::size_t c = 0; c < p; ++c) ata[r][c] += f[i][r] * f[i][c];
    }
  }
  for (int attempt = 0; attempt < 12; ++attempt, lambda *= 10.0) {
    auto a = ata;
    for (std::size_t r = 1; r < p; ++r) a[r][r] += lambda;
    if (solve_linear(std::move(a), aty, model.coef_)) break;
  }

  double mean = 0.0;
  for (const double v : y) mean += v;
  mean /= static_cast<double>(y.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    double pred = 0.0;
    for (std::size_t r = 0; r < p; ++r) pred += model.coef_[r] * f[i][r];
    ss_res += (y[i] - pred) * (y[i] - pred);
    ss_tot += (y[i] - mean) * (y[i] - mean);
  }
  model.r2_ = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : 1.0;
  return model;
}

double SurrogateModel::predict(const SearchSpace& space,
                               std::uint64_t cartesian_index) const {
  const auto f = features(space, cartesian_index);
  double sum = 0.0;
  const std::size_t n = std::min(f.size(), coef_.size());
  for (std::size_t i = 0; i < n; ++i) sum += coef_[i] * f[i];
  return log_scale_ ? std::exp(sum) : sum;
}

void OffsetTraceSink::emit(const TraceEvent& event) {
  if (!inner_) return;
  TraceEvent shifted = event;
  shifted.epoch += epoch_offset_;
  shifted.config_ordinal += ordinal_offset_;
  if (event.kind == TraceEvent::Kind::Elimination) {
    shifted.leader_ordinal += ordinal_offset_;
  }
  inner_->emit(shifted);
}

void OffsetTraceSink::kernel_phase_begin() {
  if (inner_) inner_->kernel_phase_begin();
}

void OffsetTraceSink::kernel_phase_end() {
  if (inner_) inner_->kernel_phase_end();
}

SurrogateScheduler::SurrogateScheduler(TunerOptions options)
    : options_(std::move(options)) {
  if (options_.surrogate_seed_budget == 0) {
    throw std::invalid_argument("SurrogateScheduler: seed budget must be positive");
  }
  if (options_.invocations == 0) {
    throw std::invalid_argument("SurrogateScheduler: invocations must be positive");
  }
}

SurrogateScheduler::State SurrogateScheduler::init(const SearchSpace& space) const {
  State state;
  state.seed_indices = space.latin_hypercube_indices(
      static_cast<std::size_t>(options_.surrogate_seed_budget), options_.random_seed);
  return state;
}

void SurrogateScheduler::fit_and_prune(const SearchSpace& space, State& state,
                                       std::uint64_t trace_epoch) const {
  if (state.seed_results.size() != state.seed_indices.size()) {
    throw std::logic_error("SurrogateScheduler::fit_and_prune: seed phase incomplete");
  }
  std::vector<double> values;
  values.reserve(state.seed_results.size());
  for (const auto& r : state.seed_results) values.push_back(r.value());
  state.model = SurrogateModel::fit(space, state.seed_indices, values);

  // Score every unvisited admissible index; keep the top-k by prediction,
  // ties broken by ascending cartesian index so the confirm set is a pure
  // function of (space, seed batch).
  const std::unordered_set<std::uint64_t> seeded(state.seed_indices.begin(),
                                                 state.seed_indices.end());
  const std::uint64_t total = space.ranges().empty() ? 0 : space.cartesian_cardinality();
  const bool constrained = space.has_constraints();
  const std::size_t k = static_cast<std::size_t>(options_.surrogate_confirm_top);
  std::vector<std::pair<double, std::uint64_t>> top;  // sorted best-first
  state.scanned = 0;
  for (std::uint64_t idx = 0; idx < total; ++idx) {
    if (seeded.contains(idx)) continue;
    if (constrained && !space.admits(space.config_at(idx))) continue;
    ++state.scanned;
    if (k == 0) continue;
    const double pred = state.model->predict(space, idx);
    if (top.size() == k && pred <= top.back().first) continue;
    auto pos = std::upper_bound(
        top.begin(), top.end(), std::make_pair(pred, idx),
        [](const auto& a, const auto& b) {
          return a.first > b.first || (a.first == b.first && a.second < b.second);
        });
    top.insert(pos, {pred, idx});
    if (top.size() > k) top.pop_back();
  }
  state.confirm_indices.clear();
  state.confirm_predicted.clear();
  std::vector<Configuration> confirm_configs;
  for (const auto& [pred, idx] : top) {
    state.confirm_indices.push_back(idx);
    state.confirm_predicted.push_back(pred);
    confirm_configs.push_back(space.config_at(idx));
  }
  state.race = RacingScheduler(options_).init(std::move(confirm_configs));

  if (options_.trace) {
    const std::uint64_t seeds = state.seed_indices.size();
    // One epoch holds the whole fit/prune story, sequenced by ordinal:
    // fit summary, per-seed predicted-vs-measured, prune summary, kept
    // candidates.
    TraceEvent fit;
    fit.kind = TraceEvent::Kind::SurrogateFit;
    fit.epoch = trace_epoch;
    fit.config_ordinal = 0;
    fit.count = seeds;
    fit.r2 = state.model->train_r2();
    fit.model_log_scale = state.model->log_scale();
    options_.trace->emit(fit);
    for (std::size_t i = 0; i < state.seed_indices.size(); ++i) {
      TraceEvent sample;
      sample.kind = TraceEvent::Kind::SurrogateFit;
      sample.epoch = trace_epoch;
      sample.config_ordinal = 1 + i;
      sample.config = space.config_at(state.seed_indices[i]);
      sample.predicted = state.model->predict(space, state.seed_indices[i]);
      sample.value = values[i];
      options_.trace->emit(sample);
    }
    TraceEvent prune;
    prune.kind = TraceEvent::Kind::PruneBatch;
    prune.epoch = trace_epoch;
    prune.config_ordinal = 1 + seeds;
    prune.scanned = state.scanned;
    prune.kept = state.confirm_indices.size();
    options_.trace->emit(prune);
    for (std::size_t i = 0; i < state.confirm_indices.size(); ++i) {
      TraceEvent candidate;
      candidate.kind = TraceEvent::Kind::PruneBatch;
      candidate.epoch = trace_epoch;
      candidate.config_ordinal = 2 + seeds + i;
      candidate.config = space.config_at(state.confirm_indices[i]);
      candidate.predicted = state.confirm_predicted[i];
      options_.trace->emit(candidate);
    }
  }
  util::log_debug() << "surrogate fit r2=" << state.model->train_r2() << " scanned="
                    << state.scanned << " kept=" << state.confirm_indices.size();
}

TunerOptions SurrogateScheduler::confirm_options(TraceSink* sink) const {
  TunerOptions options = options_;
  options.trace = sink;
  return options;
}

TuningRun SurrogateScheduler::finish(State state) {
  TuningRun run;
  run.results.reserve(state.seed_results.size() + state.race.entries.size());
  for (ConfigResult& result : state.seed_results) run.add(std::move(result));
  // The confirm race joins as one subtotal, after the seed sums.
  run.merge(RacingScheduler::finish(std::move(state.race)));
  return run;
}

}  // namespace rooftune::core

#include "core/parallel_evaluator.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util/log.hpp"
#include "util/profiler.hpp"

namespace rooftune::core {

namespace {

// -inf marks "no incumbent yet": every real configuration value (GFLOP/s,
// GB/s) exceeds it, and it converts to std::nullopt before reaching the
// stop conditions.
constexpr double kNoIncumbent = -std::numeric_limits<double>::infinity();

std::optional<double> as_incumbent(double value) {
  if (value == kNoIncumbent) return std::nullopt;
  return value;
}

/// Raise `target` to `value`; true when `value` became the new maximum
/// (the caller publishes an incumbent-update trace event on that edge).
bool atomic_max(std::atomic<double>& target, double value) {
  double current = target.load(std::memory_order_relaxed);
  while (value > current) {
    if (target.compare_exchange_weak(current, value,
                                     std::memory_order_acq_rel)) {
      return true;
    }
  }
  return false;
}

/// The engine's non-owning view of the fleet.
std::vector<Backend*> borrow(const std::vector<std::unique_ptr<Backend>>& backends) {
  std::vector<Backend*> workers;
  workers.reserve(backends.size());
  for (const auto& backend : backends) workers.push_back(backend.get());
  return workers;
}

/// Live mode: workers pull from a shared queue, read the freshest incumbent
/// per configuration and publish completions immediately.  Each
/// configuration is its own epoch (like the serial schedule).
TuningRun run_live(const TunerOptions& options, std::span<Backend* const> backends,
                   const Pipeline::ConfigAt& config_at, std::size_t n) {
  std::vector<std::optional<ConfigResult>> results(n);
  std::atomic<double> incumbent{kNoIncumbent};
  std::exception_ptr failure;
  std::mutex failure_mutex;
  std::atomic<std::size_t> next{0};
  const auto body = [&](std::size_t worker) noexcept {
    try {
      Backend& backend = *backends[worker];
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) break;
        const double inc = incumbent.load(std::memory_order_acquire);
        TraceContext ctx;
        ctx.epoch = i;
        ctx.config_ordinal = i;
        ConfigResult result = run_configuration(backend, config_at(i), options,
                                                as_incumbent(inc), ctx);
        // Live mode makes no determinism claim; the event records when this
        // worker observed its value become the new best.
        if (atomic_max(incumbent, result.value())) {
          emit_incumbent_update(options.trace, i, i, result);
        }
        results[i].emplace(std::move(result));
      }
    } catch (...) {
      const std::scoped_lock lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  const std::size_t active = std::min(backends.size(), n);
  std::vector<std::thread> threads;
  threads.reserve(active > 0 ? active - 1 : 0);
  for (std::size_t w = 1; w < active; ++w) threads.emplace_back(body, w);
  body(0);
  for (std::thread& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);

  // Ordered reduction: the serial best/tie-breaking rule.
  TuningRun run;
  run.results.reserve(n);
  for (auto& result : results) run.add(std::move(*result));
  return run;
}

}  // namespace

ParallelEvaluator::ParallelEvaluator(BackendFactory factory, TunerOptions options,
                                     ParallelOptions parallel)
    : factory_(std::move(factory)), options_(options), parallel_(parallel) {
  if (!factory_) {
    throw std::invalid_argument("ParallelEvaluator: null backend factory");
  }
}

std::size_t ParallelEvaluator::lookahead() const {
  return std::max<std::size_t>(1, parallel_.lookahead);
}

std::vector<std::unique_ptr<Backend>> ParallelEvaluator::make_backends(
    std::size_t max_workers) const {
  std::size_t workers =
      parallel_.workers != 0
          ? parallel_.workers
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  workers = std::min(workers, std::max<std::size_t>(1, max_workers));

  // Probe reentrancy with the first backend (it becomes worker 0's).
  std::vector<std::unique_ptr<Backend>> backends;
  backends.push_back(factory_());
  if (backends.front() == nullptr) {
    throw std::invalid_argument("ParallelEvaluator: factory returned null backend");
  }
  if (workers > 1 && !backends.front()->reentrant()) {
    util::log_warn() << "ParallelEvaluator: backend is not reentrant; "
                        "falling back to 1 worker";
    workers = 1;
  }
  for (std::size_t w = 1; w < workers; ++w) {
    backends.push_back(factory_());
    if (backends.back() == nullptr) {
      throw std::invalid_argument("ParallelEvaluator: factory returned null backend");
    }
  }
  return backends;
}

std::unique_ptr<EvalPool> ParallelEvaluator::make_pool(std::size_t workers) const {
  if (workers < 2) return nullptr;  // inline = the serial schedule
  EvalPool::Options options;
  options.workers = workers;
  options.pin_threads = parallel_.pin_workers;
  return std::make_unique<EvalPool>(options);
}

void ParallelEvaluator::attach_sched_stats(
    TuningRun& run, const EvalPool* pool, std::size_t backend_count,
    const CommitAccounting& accounting) const {
  if (!parallel_.sched_stats) return;
  SchedulerStats stats;
  if (pool != nullptr) stats = pool->stats();
  stats.mode = "pipeline";
  stats.workers = pool != nullptr ? pool->workers() : backend_count;
  stats.lookahead = lookahead();
  // Inline pipeline (no pool) executes on the coordinator: the committed
  // task count is still meaningful, idle/park counters are structurally 0.
  if (pool == nullptr) stats.tasks = accounting.tasks;
  stats.commit_wait_ns = accounting.commit_wait_ns;
  run.sched = stats;
}

TuningRun ParallelEvaluator::run(const SearchSpace& space) const {
  if (options_.strategy == SearchStrategy::Surrogate) {
    return run_surrogate(space);
  }
  const SpaceView view(space, options_.order, options_.random_seed);
  return run_impl([&view](std::size_t i) { return view.at(i); }, view.size());
}

TuningRun ParallelEvaluator::run(const std::vector<Configuration>& configs) const {
  if (options_.strategy == SearchStrategy::Surrogate) {
    throw std::invalid_argument(
        "ParallelEvaluator: the surrogate strategy scores the whole space — "
        "call run(const SearchSpace&) instead of run(configs)");
  }
  return run_impl([&configs](std::size_t i) { return configs[i]; }, configs.size());
}

TuningRun ParallelEvaluator::run_impl(const Pipeline::ConfigAt& config_at,
                                      std::size_t n) const {
  if (n == 0) return {};
  util::Profiler::instance().set_thread_name("coordinator");

  // Cap the backend fleet at what the schedule can actually run
  // concurrently: an epoch (wave or racing block) times the lookahead.
  // Requesting 64 workers on a 96-config grid with 16-wide waves used to
  // build 64 backends of which at most 16 ever ran at once.
  const bool racing = options_.strategy == SearchStrategy::Racing;
  std::size_t concurrency = n;
  if (racing) {
    concurrency = std::min(n, RacingScheduler::kBlock * lookahead());
  } else if (parallel_.deterministic) {
    concurrency =
        std::min(n, std::max<std::size_t>(1, parallel_.wave) * lookahead());
  }
  const auto backends = make_backends(concurrency);
  const std::vector<Backend*> workers = borrow(backends);
  const std::unique_ptr<EvalPool> pool =
      (racing || parallel_.deterministic) ? make_pool(workers.size()) : nullptr;
  Pipeline pipeline(options_, workers, pool.get(), parallel_.wave, lookahead());

  TuningRun run;
  if (racing) {
    run = pipeline.racing(config_at, n);
  } else if (parallel_.deterministic) {
    run = pipeline.exhaustive(config_at, n);
  } else {
    run = run_live(options_, workers, config_at, n);
    run.arena = pipeline.arena_stats();
  }
  attach_sched_stats(run, pool.get(), workers.size(), pipeline.accounting());
  return run;
}

TuningRun ParallelEvaluator::run_surrogate(const SearchSpace& space) const {
  SurrogateScheduler::State state = SurrogateScheduler(options_).init(space);
  const std::size_t seeds = state.seed_indices.size();
  if (seeds == 0) return {};

  const std::size_t wave = std::max<std::size_t>(1, parallel_.wave);
  const auto backends = make_backends(
      std::min(seeds, std::max(wave, RacingScheduler::kBlock) * lookahead()));
  const std::vector<Backend*> workers = borrow(backends);
  const std::unique_ptr<EvalPool> pool = make_pool(workers.size());
  util::Profiler::instance().set_thread_name("coordinator");
  Pipeline pipeline(options_, workers, pool.get(), wave, lookahead());
  TuningRun run = pipeline.surrogate(space, std::move(state));
  attach_sched_stats(run, pool.get(), workers.size(), pipeline.accounting());
  return run;
}

}  // namespace rooftune::core

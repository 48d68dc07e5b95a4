#include "core/parallel_evaluator.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/surrogate.hpp"
#include "util/log.hpp"
#include "util/profiler.hpp"

namespace rooftune::core {

namespace {

using Clock = std::chrono::steady_clock;

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

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

/// Coordinator/worker rendezvous for the pipeline drivers: every shared
/// mutation (results, completion flags, failure, in-flight count) happens
/// under one mutex, and the condition variable wakes the committing
/// coordinator.
struct PipelineSync {
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr failure;
  std::size_t in_flight = 0;
};

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

std::unique_ptr<EvalPool> ParallelEvaluator::make_pool(
    const std::vector<std::unique_ptr<Backend>>& backends) const {
  if (backends.size() < 2) return nullptr;  // inline = the serial schedule
  EvalPool::Options options;
  options.workers = backends.size();
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
  // task count is still meaningful, idle/steal counters are structurally 0.
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

TuningRun ParallelEvaluator::run_impl(const ConfigAt& config_at, std::size_t n) const {
  TuningRun run;
  if (n == 0) return run;
  util::Profiler::instance().set_thread_name("coordinator");

  // Cap the backend fleet at what the schedule can actually run
  // concurrently: an epoch (wave or racing block) times the lookahead.
  // Requesting 64 workers on a 96-config grid with 16-wide waves used to
  // build 64 backends of which at most 16 ever ran at once.
  std::size_t concurrency = n;
  if (options_.strategy == SearchStrategy::Racing) {
    concurrency = std::min(n, RacingScheduler::kBlock * lookahead());
  } else if (parallel_.deterministic) {
    concurrency =
        std::min(n, std::max<std::size_t>(1, parallel_.wave) * lookahead());
  }
  auto backends = make_backends(concurrency);
  const std::unique_ptr<EvalPool> pool =
      (parallel_.deterministic || options_.strategy == SearchStrategy::Racing)
          ? make_pool(backends)
          : nullptr;
  CommitAccounting accounting;

  if (options_.strategy == SearchStrategy::Racing) {
    // The race holds per-entry state for the whole population; materialize
    // its config list once.
    std::vector<Configuration> configs;
    configs.reserve(n);
    for (std::size_t i = 0; i < n; ++i) configs.push_back(config_at(i));
    TuningRun racing_run = run_racing(backends, pool.get(), configs, &accounting);
    racing_run.arena = aggregate_arena_stats(backends);
    attach_sched_stats(racing_run, pool.get(), backends.size(), accounting);
    return racing_run;
  }

  std::vector<std::optional<ConfigResult>> results(n);
  std::atomic<double> incumbent{kNoIncumbent};

  if (parallel_.deterministic) {
    evaluate_pipeline(pool.get(), backends, config_at, n, incumbent, results,
                      &accounting);
  } else {
    // Live mode: workers pull from a shared queue, read the freshest
    // incumbent per configuration and publish completions immediately.
    // Each configuration is its own epoch (like the serial loop).
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
          const Configuration config = config_at(i);
          TraceContext ctx;
          ctx.epoch = i;
          ctx.config_ordinal = i;
          ConfigResult result = run_configuration(backend, config, options_,
                                                  as_incumbent(inc), ctx);
          const double value = result.value();
          if (atomic_max(incumbent, value) && options_.trace) {
            // Live mode makes no determinism claim; the event records when
            // this worker observed its value become the new best.
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
  }

  // Final ordered reduction: identical best/tie-breaking rule to the
  // serial Autotuner loop (first strictly-greater value wins).
  std::optional<double> best;
  run.results.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ConfigResult result = std::move(*results[i]);
    run.total_iterations += result.total_iterations;
    run.total_invocations += result.invocations.size();
    if (result.pruned()) ++run.pruned_configs;
    run.total_time += result.total_time;
    run.total_setup_time += result.total_setup_time;
    run.total_kernel_time += result.total_kernel_time;
    const double value = result.value();
    if (!best.has_value() || value > *best) {
      best = value;
      run.best_index = i;
    }
    run.results.push_back(std::move(result));
  }
  run.arena = aggregate_arena_stats(backends);
  attach_sched_stats(run, pool.get(), backends.size(), accounting);
  return run;
}

void ParallelEvaluator::evaluate_pipeline(
    EvalPool* pool, std::vector<std::unique_ptr<Backend>>& backends,
    const ConfigAt& config_at, std::size_t n, std::atomic<double>& incumbent,
    std::vector<std::optional<ConfigResult>>& results,
    CommitAccounting* accounting) const {
  const std::size_t wave = std::max<std::size_t>(1, parallel_.wave);
  const std::size_t window = lookahead();
  const std::size_t epochs = (n + wave - 1) / wave;

  PipelineSync sync;
  std::atomic<bool> cancelled{false};
  // done[i] flips when task i finished (with a result, or cancelled after a
  // failure); the commit frontier only crosses contiguous done slots.
  std::vector<std::uint8_t> done(n, 0);
  std::vector<Clock::time_point> done_at(n);

  // snapshots[k] = incumbent value once k epochs have committed (index 0 =
  // phase entry).  Epoch e executes against snapshots[max(0, e+1-window)]
  // — the incumbent after every earlier epoch when window == 1 — so every
  // task's input is a pure function of the schedule, never of worker
  // timing.
  std::vector<double> snapshots(epochs + 1, kNoIncumbent);
  snapshots[0] = incumbent.load(std::memory_order_acquire);

  std::size_t dispatched = 0;
  std::size_t committed = 0;
  std::size_t committed_epochs = 0;

  const auto dispatch_one = [&](std::size_t i) {
    const std::uint64_t epoch = static_cast<std::uint64_t>(i / wave);
    const double frozen =
        snapshots[epoch + 1 > window ? epoch + 1 - window : 0];
    {
      const std::scoped_lock lock(sync.mutex);
      ++sync.in_flight;
    }
    auto task = [&, i, epoch, frozen](std::size_t worker) noexcept {
      std::optional<ConfigResult> result;
      std::exception_ptr error;
      if (!cancelled.load(std::memory_order_acquire)) {
        try {
          Backend& backend = *backends[worker];
          const Configuration config = config_at(i);
          TraceContext ctx;
          ctx.epoch = epoch;
          ctx.config_ordinal = i;
          result.emplace(run_configuration(backend, config, options_,
                                           as_incumbent(frozen), ctx));
        } catch (...) {
          error = std::current_exception();
        }
      }
      {
        const std::scoped_lock lock(sync.mutex);
        if (result.has_value()) results[i] = std::move(result);
        if (error && !sync.failure) {
          sync.failure = error;
          cancelled.store(true, std::memory_order_release);
        }
        done[i] = 1;
        done_at[i] = Clock::now();
        --sync.in_flight;
        // Notify under the lock: the coordinator destroys `sync` as soon
        // as its predicate holds, so an unlocked notify could touch a dead
        // condition variable.
        sync.cv.notify_all();
      }
    };
    if (pool != nullptr) {
      pool->submit(std::move(task));
    } else {
      task(0);
    }
  };

  try {
    bool aborted = false;
    while (committed < n && !aborted) {
      // Fill the dispatch window: every config whose epoch is within
      // `window` of the committed-epoch frontier.
      for (;;) {
        {
          const std::scoped_lock lock(sync.mutex);
          if (sync.failure) break;
        }
        if (dispatched >= n ||
            dispatched / wave >= committed_epochs + window) {
          break;
        }
        dispatch_one(dispatched);
        ++dispatched;
      }

      // Wait until the commit frontier can advance (or everything drained
      // after a failure).
      {
        std::unique_lock lock(sync.mutex);
        sync.cv.wait(lock, [&] {
          return done[committed] != 0 ||
                 (sync.failure && sync.in_flight == 0);
        });
        if (done[committed] == 0) break;  // failure drained; nothing to commit
      }

      // Retire every contiguous completed result, strictly in config
      // order.  This is the only place the incumbent advances, so the
      // rank-7 events follow config order, whatever the worker count.
      while (committed < n) {
        {
          const std::scoped_lock lock(sync.mutex);
          if (done[committed] == 0) break;
        }
        if (!results[committed].has_value()) {  // cancelled task: failing run
          aborted = true;
          break;
        }
        const std::size_t i = committed;
        util::Profiler& profiler = util::Profiler::instance();
        if (accounting != nullptr) {
          const Clock::time_point commit_at = Clock::now();
          accounting->commit_wait_ns += ns_between(done_at[i], commit_at);
          ++accounting->tasks;
          // Same interval commit_wait_ns accumulates: task done → committed.
          profiler.record(util::ProfileCategory::CommitWait,
                          profiler.to_ticks(done_at[i]),
                          profiler.to_ticks(commit_at), 0.0, i);
        }
        const double value = results[i]->value();
        const std::uint64_t epoch = static_cast<std::uint64_t>(i / wave);
        const bool improved = atomic_max(incumbent, value);
        if (improved) profiler.instant(util::ProfileCategory::Incumbent, i);
        if (improved && options_.trace) {
          TraceEvent event;
          event.kind = TraceEvent::Kind::IncumbentUpdate;
          event.epoch = epoch;
          event.config_ordinal = i;
          event.invocation = results[i]->invocations.empty()
                                 ? 0
                                 : results[i]->invocations.size() - 1;
          event.rank = 7;
          event.config = config_at(i);
          event.value = value;
          options_.trace->emit(event);
        }
        ++committed;
        if (committed % wave == 0 || committed == n) {
          snapshots[++committed_epochs] =
              incumbent.load(std::memory_order_acquire);
          util::Profiler::instance().instant(util::ProfileCategory::Epoch,
                                             committed_epochs);
        }
      }
    }
  } catch (...) {
    // Coordinator-side failure (config_at, trace sink): stop issuing work,
    // let in-flight tasks drain against live stack frames, then rethrow.
    cancelled.store(true, std::memory_order_release);
    std::unique_lock lock(sync.mutex);
    sync.cv.wait(lock, [&] { return sync.in_flight == 0; });
    throw;
  }

  std::unique_lock lock(sync.mutex);
  sync.cv.wait(lock, [&] { return sync.in_flight == 0; });
  if (sync.failure) std::rethrow_exception(sync.failure);
}

std::optional<util::ArenaStats> ParallelEvaluator::aggregate_arena_stats(
    const std::vector<std::unique_ptr<Backend>>& backends) {
  // Each worker owns an independent arena; the report shows the fleet-wide
  // totals.  Backends without an arena contribute nothing; if no backend
  // has one the run carries no arena section at all.
  std::optional<util::ArenaStats> total;
  for (const auto& backend : backends) {
    if (const auto stats = backend->arena_stats()) {
      if (!total) total.emplace();
      *total += *stats;
    }
  }
  return total;
}

void ParallelEvaluator::race_pipeline(
    EvalPool* pool, std::vector<std::unique_ptr<Backend>>& backends,
    const RacingScheduler& scheduler, RacingScheduler::State& state,
    CommitAccounting* accounting) const {
  const TunerOptions& options = scheduler.options();
  const std::size_t window = lookahead();

  for (;;) {
    const auto blocks = RacingScheduler::round_blocks(state);
    if (blocks.empty()) break;
    const std::size_t nblocks = blocks.size();
    util::ProfileSpan round_span(util::ProfileCategory::RacingRound,
                                 state.round);

    PipelineSync sync;
    std::atomic<bool> cancelled{false};
    // One pending slot per runnable entry of each block, filled by workers
    // out of order and merged by the coordinator strictly in block order.
    struct PendingInvocation {
      std::size_t entry = 0;
      InvocationResult result;
      bool valid = false;
    };
    std::vector<std::vector<PendingInvocation>> pending(nblocks);
    std::vector<std::size_t> remaining(nblocks, 0);
    std::vector<Clock::time_point> block_done_at(nblocks);

    // snapshots[k] = frozen incumbent after k blocks of this round have
    // committed (index 0 = round entry).  Block b dispatches against
    // snapshots[max(0, b+1-window)]; at window 1 that is the serial
    // scheduler's per-block refresh.  The window resets each round — the
    // round barrier stays, because conclude_round needs the whole round.
    std::vector<std::optional<double>> snapshots(nblocks + 1);
    snapshots[0] = RacingScheduler::frozen_incumbent(state);

    // Dispatch prologue runs on the coordinator at a schedule-determined
    // point (exactly one block per committed block), so the counter-skip
    // calibration scan always sees the same committed prefix regardless of
    // worker timing.
    const auto dispatch_block = [&](std::size_t b) {
      const std::vector<std::size_t>& block = blocks[b];
      const std::optional<double> incumbent =
          snapshots[b + 1 > window ? b + 1 - window : 0];
      if (options.trace && incumbent.has_value()) {
        TraceEvent event;
        event.kind = TraceEvent::Kind::IncumbentUpdate;
        event.epoch = state.round;
        event.config_ordinal = block.front();
        event.invocation = state.round;
        event.rank = 0;
        event.value = *incumbent;
        options.trace->emit(event);
      }
      scheduler.apply_counter_skips(state, block, incumbent, *backends[0]);

      std::vector<std::size_t> runnable;
      for (const std::size_t i : block) {
        if (state.entries[i].status == RacingScheduler::Status::Racing) {
          runnable.push_back(i);
        }
      }
      pending[b].resize(runnable.size());
      {
        const std::scoped_lock lock(sync.mutex);
        remaining[b] = runnable.size();
        sync.in_flight += runnable.size();
        if (runnable.empty()) {
          block_done_at[b] = Clock::now();
          sync.cv.notify_all();  // under the lock; see evaluate_pipeline
        }
      }
      if (runnable.empty()) return;
      for (std::size_t j = 0; j < runnable.size(); ++j) {
        const std::size_t entry_index = runnable[j];
        // Captured at dispatch: the entry's committed invocation count and
        // a copy of its configuration — workers never touch State.
        const Configuration config =
            state.entries[entry_index].result.config;
        const auto invocation_index = static_cast<std::uint64_t>(
            state.entries[entry_index].result.invocations.size());
        auto task = [&, b, j, entry_index, config, invocation_index,
                     incumbent](std::size_t worker) noexcept {
          PendingInvocation slot;
          slot.entry = entry_index;
          std::exception_ptr error;
          if (!cancelled.load(std::memory_order_acquire)) {
            try {
              slot.result = scheduler.run_detached_invocation(
                  *backends[worker], config, invocation_index, incumbent,
                  entry_index);
              slot.valid = true;
            } catch (...) {
              error = std::current_exception();
            }
          }
          {
            const std::scoped_lock lock(sync.mutex);
            pending[b][j] = std::move(slot);
            if (error && !sync.failure) {
              sync.failure = error;
              cancelled.store(true, std::memory_order_release);
            }
            if (--remaining[b] == 0) block_done_at[b] = Clock::now();
            --sync.in_flight;
            sync.cv.notify_all();  // under the lock; see evaluate_pipeline
          }
        };
        if (pool != nullptr) {
          pool->submit(std::move(task));
        } else {
          task(0);
        }
      }
    };

    bool aborted = false;
    try {
      std::size_t next_dispatch = 0;
      for (; next_dispatch < std::min(window, nblocks); ++next_dispatch) {
        dispatch_block(next_dispatch);
      }
      for (std::size_t b = 0; b < nblocks && !aborted; ++b) {
        {
          std::unique_lock lock(sync.mutex);
          sync.cv.wait(lock, [&] {
            return remaining[b] == 0 ||
                   (sync.failure && sync.in_flight == 0);
          });
          if (remaining[b] != 0) {  // failure drained mid-round
            aborted = true;
            break;
          }
        }
        // In-order commit: merge the block's invocations in block order.
        for (PendingInvocation& slot : pending[b]) {
          if (!slot.valid) {  // cancelled after a failure
            aborted = true;
            break;
          }
          RacingScheduler::commit_invocation(state.entries[slot.entry],
                                             std::move(slot.result));
        }
        if (aborted) break;
        if (accounting != nullptr) {
          const Clock::time_point commit_at = Clock::now();
          accounting->commit_wait_ns +=
              ns_between(block_done_at[b], commit_at);
          accounting->tasks += pending[b].size();
          util::Profiler& profiler = util::Profiler::instance();
          profiler.record(util::ProfileCategory::CommitWait,
                          profiler.to_ticks(block_done_at[b]),
                          profiler.to_ticks(commit_at), 0.0, b);
        }
        snapshots[b + 1] = RacingScheduler::frozen_incumbent(state);
        if (next_dispatch < nblocks) {
          bool failed = false;
          {
            const std::scoped_lock lock(sync.mutex);
            failed = sync.failure != nullptr;
          }
          if (!failed) dispatch_block(next_dispatch++);
        }
      }
    } catch (...) {
      cancelled.store(true, std::memory_order_release);
      std::unique_lock lock(sync.mutex);
      sync.cv.wait(lock, [&] { return sync.in_flight == 0; });
      throw;
    }

    {
      std::unique_lock lock(sync.mutex);
      sync.cv.wait(lock, [&] { return sync.in_flight == 0; });
      if (sync.failure) std::rethrow_exception(sync.failure);
    }
    if (aborted) break;  // unreachable without a failure; defensive

    if (!scheduler.conclude_round(state)) break;
  }
}

TuningRun ParallelEvaluator::run_racing(
    std::vector<std::unique_ptr<Backend>>& backends, EvalPool* pool,
    const std::vector<Configuration>& configs,
    CommitAccounting* accounting) const {
  // A racing round is inherently a deterministic wave: every survivor's
  // invocation is keyed by (configuration, invocation index), the incumbent
  // is frozen per block, and elimination reduces in config order after
  // the round barrier — so live and deterministic mode coincide and results
  // are bit-identical for any worker count.
  const RacingScheduler scheduler(options_);
  RacingScheduler::State state = scheduler.init(configs);
  race_pipeline(pool, backends, scheduler, state, accounting);
  return RacingScheduler::finish(std::move(state));
}

TuningRun ParallelEvaluator::run_surrogate(const SearchSpace& space) const {
  const SurrogateScheduler scheduler(options_);
  SurrogateScheduler::State state = scheduler.init(space);
  const std::size_t seeds = state.seed_indices.size();
  if (seeds == 0) return {};

  const std::size_t wave = std::max<std::size_t>(1, parallel_.wave);
  auto backends = make_backends(
      std::min(seeds, std::max(wave, RacingScheduler::kBlock) * lookahead()));
  const std::unique_ptr<EvalPool> pool = make_pool(backends);
  CommitAccounting accounting;

  // Seed phase: deterministic waves regardless of ParallelOptions::
  // deterministic — the fitted model (and with it the confirm set) must be
  // a pure function of the seed batch for the bit-reproducibility claim to
  // hold across worker counts.  Epoch = wave index, like the exhaustive
  // deterministic mode.
  util::Profiler::instance().set_thread_name("coordinator");
  std::vector<std::optional<ConfigResult>> results(seeds);
  std::atomic<double> incumbent{kNoIncumbent};
  const auto seed_at = [&](std::size_t i) {
    return space.config_at(state.seed_indices[i]);
  };
  {
    util::ProfileSpan seed_span(util::ProfileCategory::SurrogateSeed, seeds);
    evaluate_pipeline(pool.get(), backends, seed_at, seeds, incumbent, results,
                      &accounting);
  }
  for (auto& result : results) {
    SurrogateScheduler::normalize_seed_time(*result);
    state.seed_results.push_back(std::move(*result));
  }

  // Fit + prune on the coordinating thread, one epoch past the seed waves.
  const std::uint64_t wave_count = (seeds + wave - 1) / wave;
  {
    util::ProfileSpan fit_span(util::ProfileCategory::SurrogateFit, seeds);
    scheduler.fit_and_prune(space, state, wave_count);
  }

  // Confirm race: racing waves with the logical sort key shifted past the
  // seed phase (epochs past the fit/prune epoch, ordinals past the seeds).
  // The same pool carries both phases — no teardown between them.
  OffsetTraceSink sink(options_.trace, wave_count + 1, seeds);
  const RacingScheduler confirm(
      scheduler.confirm_options(options_.trace ? &sink : nullptr));
  {
    util::ProfileSpan confirm_span(util::ProfileCategory::SurrogateConfirm,
                                   state.confirm_indices.size());
    race_pipeline(pool.get(), backends, confirm, state.race, &accounting);
  }

  TuningRun run = SurrogateScheduler::finish(std::move(state));
  run.arena = aggregate_arena_stats(backends);
  attach_sched_stats(run, pool.get(), backends.size(), accounting);
  return run;
}

}  // namespace rooftune::core

#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>
#include <vector>

#include "util/profiler.hpp"

namespace rooftune::core {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_between(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

}  // namespace

Pipeline::Pipeline(const TunerOptions& options, std::span<Backend* const> backends,
                   EvalPool* pool, std::size_t wave, std::size_t lookahead)
    : options_(options),
      backends_(backends),
      pool_(pool),
      wave_(std::max<std::size_t>(1, wave)),
      lookahead_(std::max<std::size_t>(1, lookahead)) {}

std::optional<util::ArenaStats> Pipeline::arena_stats() const {
  // Each worker owns an independent arena; the report shows the fleet-wide
  // totals.  Backends without an arena contribute nothing; if no backend
  // has one the run carries no arena section at all.
  std::optional<util::ArenaStats> total;
  for (const Backend* backend : backends_) {
    if (const auto stats = backend->arena_stats()) {
      if (!total) total.emplace();
      *total += *stats;
    }
  }
  return total;
}

void Pipeline::window(std::size_t epochs, std::optional<double> entry_incumbent,
                      const Start& start, const Commit& commit) {
  // Every shared mutation (epoch completion, failure, in-flight count)
  // happens under `mutex`; `cv` wakes the committing coordinator.
  struct EpochState {
    std::size_t tasks = 0;
    std::size_t remaining = 0;  ///< tasks not yet finished
    bool broken = false;        ///< a task failed or was cancelled
    Clock::time_point done_at;  ///< when its last task finished
  };
  std::mutex mutex;
  std::condition_variable cv;
  std::exception_ptr failure;
  std::size_t in_flight = 0;
  std::atomic<bool> cancelled{false};
  std::vector<EpochState> state(epochs);

  // snapshots[k] = incumbent once k epochs have committed.  Epoch e starts
  // against snapshots[max(0, e+1-lookahead)] — the incumbent after every
  // earlier epoch at lookahead 1.
  std::vector<std::optional<double>> snapshots(epochs + 1);
  snapshots[0] = entry_incumbent;

  const auto launch = [&](std::size_t e) {
    std::vector<Task> tasks =
        start(e, snapshots[e + 1 > lookahead_ ? e + 1 - lookahead_ : 0]);
    {
      const std::scoped_lock lock(mutex);
      state[e].tasks = state[e].remaining = tasks.size();
      in_flight += tasks.size();
      if (tasks.empty()) state[e].done_at = Clock::now();
    }
    for (Task& work : tasks) {
      auto task = [&, e, body = std::move(work)](std::size_t worker) noexcept {
        bool ran = false;
        std::exception_ptr error;
        if (!cancelled.load(std::memory_order_acquire)) {
          try {
            body(*backends_[worker]);
            ran = true;
          } catch (...) {
            error = std::current_exception();
          }
        }
        const std::scoped_lock lock(mutex);
        if (error && !failure) {
          failure = error;
          cancelled.store(true, std::memory_order_release);
        }
        if (!ran) state[e].broken = true;
        if (--state[e].remaining == 0) state[e].done_at = Clock::now();
        --in_flight;
        // Notify under the lock: the coordinator destroys `cv` as soon as
        // its predicate holds, so an unlocked notify could touch a dead
        // condition variable.
        cv.notify_all();
      };
      if (pool_ != nullptr) {
        pool_->submit(std::move(task));
      } else {
        task(0);
      }
    }
  };

  const auto drain = [&] {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return in_flight == 0; });
  };

  try {
    std::size_t launched = 0;
    for (std::size_t e = 0; e < epochs; ++e) {
      while (launched < std::min(epochs, e + lookahead_) &&
             !cancelled.load(std::memory_order_acquire)) {
        launch(launched++);
      }
      Clock::time_point done_at;
      {
        std::unique_lock lock(mutex);
        cv.wait(lock, [&] {
          return (e < launched && state[e].remaining == 0) ||
                 (failure && in_flight == 0);
        });
        // After a failure the window stops at the first epoch that never
        // started or lost a task; the epochs before it still commit.
        if (e >= launched || state[e].broken) break;
        done_at = state[e].done_at;
      }
      util::Profiler& profiler = util::Profiler::instance();
      const Clock::time_point commit_at = Clock::now();
      accounting_.commit_wait_ns += ns_between(done_at, commit_at);
      accounting_.tasks += state[e].tasks;
      profiler.record(util::ProfileCategory::CommitWait,
                      profiler.to_ticks(done_at), profiler.to_ticks(commit_at),
                      0.0, e);
      snapshots[e + 1] = commit(e);
    }
  } catch (...) {
    // Coordinator-side failure (trace sink, progress callback): stop
    // starting work, let in-flight tasks drain against live stack frames,
    // then rethrow.
    cancelled.store(true, std::memory_order_release);
    drain();
    throw;
  }
  drain();
  if (failure) std::rethrow_exception(failure);
}

TuningRun Pipeline::exhaustive(const ConfigAt& config_at, std::size_t n,
                               const Autotuner::ProgressCallback& progress) {
  TuningRun run;
  run.results.reserve(n);
  // Workers fill results[i] out of order; the commit reads an epoch's
  // slots only once all of them are filled.
  std::vector<std::optional<ConfigResult>> results(n);
  std::optional<double> incumbent;
  const auto first = [&](std::size_t e) { return e * wave_; };
  const auto last = [&](std::size_t e) { return std::min(n, (e + 1) * wave_); };

  window(
      (n + wave_ - 1) / wave_, std::nullopt,
      [&](std::size_t e, std::optional<double> frozen) {
        std::vector<Task> tasks;
        tasks.reserve(last(e) - first(e));
        for (std::size_t i = first(e); i < last(e); ++i) {
          tasks.emplace_back([&, e, i, frozen](Backend& backend) {
            TraceContext ctx;
            ctx.epoch = e;
            ctx.config_ordinal = i;
            results[i].emplace(
                run_configuration(backend, config_at(i), options_, frozen, ctx));
          });
        }
        return tasks;
      },
      [&](std::size_t e) {
        // The only place the incumbent advances, so the rank-7 events and
        // the progress callback follow config order, whatever the worker
        // count.
        util::Profiler& profiler = util::Profiler::instance();
        for (std::size_t i = first(e); i < last(e); ++i) {
          run.add(std::move(*results[i]));
          const ConfigResult& result = run.results.back();
          if (run.best_index == i) {
            incumbent = result.value();
            profiler.instant(util::ProfileCategory::Incumbent, i);
            emit_incumbent_update(options_.trace, e, i, result);
          }
          if (progress) progress(i, n, result);
        }
        profiler.instant(util::ProfileCategory::Epoch, e + 1);
        return incumbent;
      });

  run.arena = arena_stats();
  return run;
}

TuningRun Pipeline::racing(const ConfigAt& config_at, std::size_t n) {
  // The race holds per-entry state for the whole population; materialize
  // its config list once.
  std::vector<Configuration> configs;
  configs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) configs.push_back(config_at(i));
  const RacingScheduler scheduler(options_);
  RacingScheduler::State state = scheduler.init(std::move(configs));
  race(scheduler, state);
  TuningRun run = RacingScheduler::finish(std::move(state));
  run.arena = arena_stats();
  return run;
}

TuningRun Pipeline::surrogate(const SearchSpace& space,
                              SurrogateScheduler::State state) {
  const SurrogateScheduler scheduler(options_);
  const std::size_t seeds = state.seed_indices.size();

  // Seed phase: the exhaustive schedule over the seed batch (epoch = wave
  // index).  Waves are deterministic whatever the caller's live/determinism
  // setting — the fitted model, and with it the confirm set, must be a
  // pure function of the seed batch.
  {
    util::ProfileSpan seed_span(util::ProfileCategory::SurrogateSeed, seeds);
    TuningRun seeded = exhaustive(
        [&](std::size_t i) { return space.config_at(state.seed_indices[i]); },
        seeds);
    state.seed_results = std::move(seeded.results);
  }

  // Fit + prune on the coordinating thread, one epoch past the seed waves.
  const std::uint64_t wave_count = (seeds + wave_ - 1) / wave_;
  {
    util::ProfileSpan fit_span(util::ProfileCategory::SurrogateFit, seeds);
    scheduler.fit_and_prune(space, state, wave_count);
  }

  // Confirm race with the logical sort key shifted past the seed phase
  // (epochs past the fit/prune epoch, ordinals past the seeds).  The same
  // backends and pool carry both phases.
  OffsetTraceSink sink(options_.trace, wave_count + 1, seeds);
  const RacingScheduler confirm(
      scheduler.confirm_options(options_.trace ? &sink : nullptr));
  {
    util::ProfileSpan confirm_span(util::ProfileCategory::SurrogateConfirm,
                                   state.confirm_indices.size());
    race(confirm, state.race);
  }

  TuningRun run = SurrogateScheduler::finish(std::move(state));
  run.arena = arena_stats();
  return run;
}

void Pipeline::race(const RacingScheduler& scheduler,
                    RacingScheduler::State& state) {
  const TunerOptions& options = scheduler.options();

  for (;;) {
    const auto blocks = RacingScheduler::round_blocks(state);
    if (blocks.empty()) break;
    util::ProfileSpan round_span(util::ProfileCategory::RacingRound,
                                 state.round);

    // One slot per runnable entry of each block, filled by workers out of
    // order and merged by the commit strictly in block order.
    struct Pending {
      std::size_t entry = 0;
      InvocationResult result;
    };
    std::vector<std::vector<Pending>> pending(blocks.size());

    window(
        blocks.size(), RacingScheduler::frozen_incumbent(state),
        [&](std::size_t b, std::optional<double> incumbent) {
          const std::vector<std::size_t>& block = blocks[b];
          if (options.trace && incumbent.has_value()) {
            // The incumbent frozen for this block (rank 0 sorts it ahead of
            // the block's first invocation in the merged journal).
            TraceEvent event;
            event.kind = TraceEvent::Kind::IncumbentUpdate;
            event.epoch = state.round;
            event.config_ordinal = block.front();
            event.invocation = state.round;
            event.rank = 0;
            event.value = *incumbent;
            options.trace->emit(event);
          }
          scheduler.apply_counter_skips(state, block, incumbent, *backends_[0]);

          std::vector<Task> tasks;
          for (const std::size_t i : block) {
            const RacingScheduler::Entry& entry = state.entries[i];
            if (entry.status != RacingScheduler::Status::Racing) continue;
            // Captured now: the entry's committed invocation count and a
            // copy of its configuration — workers never touch State.
            const std::size_t slot = pending[b].size();
            pending[b].push_back({i, {}});
            tasks.emplace_back(
                [&, b, slot, i, incumbent, config = entry.result.config,
                 invocation = static_cast<std::uint64_t>(
                     entry.result.invocations.size())](Backend& backend) {
                  pending[b][slot].result = scheduler.run_detached_invocation(
                      backend, config, invocation, incumbent, i);
                });
          }
          return tasks;
        },
        [&](std::size_t b) {
          for (Pending& slot : pending[b]) {
            RacingScheduler::commit_invocation(state.entries[slot.entry],
                                               std::move(slot.result));
          }
          return RacingScheduler::frozen_incumbent(state);
        });

    if (!scheduler.conclude_round(state)) break;
  }
}

}  // namespace rooftune::core

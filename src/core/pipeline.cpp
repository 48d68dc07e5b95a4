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

TuningRun Pipeline::exhaustive(const ConfigAt& config_at, std::size_t n,
                               const Autotuner::ProgressCallback& progress) {
  const std::size_t epochs = (n + wave_ - 1) / wave_;
  TuningRun run;
  run.results.reserve(n);

  PipelineSync sync;
  std::atomic<bool> cancelled{false};
  // Workers fill results[i] out of order; done[i] flips when task i
  // finished (with a result, or cancelled after a failure), and the commit
  // frontier only crosses contiguous done slots.
  std::vector<std::optional<ConfigResult>> results(n);
  std::vector<std::uint8_t> done(n, 0);
  std::vector<Clock::time_point> done_at(n);

  // snapshots[k] = incumbent (the best committed value) once k epochs have
  // committed.  Epoch e executes against snapshots[max(0, e+1-lookahead)]
  // — the incumbent after every earlier epoch at lookahead 1 — so every
  // task's input is a pure function of the schedule, never of worker
  // timing.
  std::vector<std::optional<double>> snapshots(epochs + 1);
  std::optional<double> incumbent;

  std::size_t dispatched = 0;
  std::size_t committed = 0;
  std::size_t committed_epochs = 0;

  const auto dispatch_one = [&](std::size_t i) {
    const std::uint64_t epoch = static_cast<std::uint64_t>(i / wave_);
    const std::optional<double> frozen =
        snapshots[epoch + 1 > lookahead_ ? epoch + 1 - lookahead_ : 0];
    {
      const std::scoped_lock lock(sync.mutex);
      ++sync.in_flight;
    }
    auto task = [&, i, epoch, frozen](std::size_t worker) noexcept {
      std::optional<ConfigResult> result;
      std::exception_ptr error;
      if (!cancelled.load(std::memory_order_acquire)) {
        try {
          TraceContext ctx;
          ctx.epoch = epoch;
          ctx.config_ordinal = i;
          result.emplace(run_configuration(*backends_[worker], config_at(i),
                                           options_, frozen, ctx));
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
    if (pool_ != nullptr) {
      pool_->submit(std::move(task));
    } else {
      task(0);
    }
  };

  try {
    bool aborted = false;
    while (committed < n && !aborted) {
      // Fill the dispatch window: every config whose epoch is within
      // `lookahead` of the committed-epoch frontier.
      for (;;) {
        {
          const std::scoped_lock lock(sync.mutex);
          if (sync.failure) break;
        }
        if (dispatched >= n ||
            dispatched / wave_ >= committed_epochs + lookahead_) {
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
      // rank-7 events and the progress callback follow config order,
      // whatever the worker count.
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
        const Clock::time_point commit_at = Clock::now();
        accounting_.commit_wait_ns += ns_between(done_at[i], commit_at);
        ++accounting_.tasks;
        // Same interval commit_wait_ns accumulates: task done → committed.
        profiler.record(util::ProfileCategory::CommitWait,
                        profiler.to_ticks(done_at[i]),
                        profiler.to_ticks(commit_at), 0.0, i);
        run.add(std::move(*results[i]));
        const ConfigResult& result = run.results.back();
        if (run.best_index == i) {
          incumbent = result.value();
          profiler.instant(util::ProfileCategory::Incumbent, i);
          emit_incumbent_update(options_.trace, i / wave_, i, result);
        }
        if (progress) progress(i, n, result);
        ++committed;
        if (committed % wave_ == 0 || committed == n) {
          snapshots[++committed_epochs] = incumbent;
          profiler.instant(util::ProfileCategory::Epoch, committed_epochs);
        }
      }
    }
  } catch (...) {
    // Coordinator-side failure (trace sink, progress callback): stop
    // issuing work, let in-flight tasks drain against live stack frames,
    // then rethrow.
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
    // snapshots[max(0, b+1-lookahead)]; at lookahead 1 every block sees all
    // earlier blocks.  The window resets each round — the round barrier
    // stays, because conclude_round needs the whole round.
    std::vector<std::optional<double>> snapshots(nblocks + 1);
    snapshots[0] = RacingScheduler::frozen_incumbent(state);

    // Dispatch prologue runs on the coordinator at a schedule-determined
    // point (exactly one block per committed block), so the counter-skip
    // calibration scan always sees the same committed prefix regardless of
    // worker timing.
    const auto dispatch_block = [&](std::size_t b) {
      const std::vector<std::size_t>& block = blocks[b];
      const std::optional<double> incumbent =
          snapshots[b + 1 > lookahead_ ? b + 1 - lookahead_ : 0];
      if (options.trace && incumbent.has_value()) {
        // The incumbent frozen for this block (rank 0 sorts it ahead of the
        // block's first invocation in the merged journal).
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
          sync.cv.notify_all();  // under the lock; see exhaustive()
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
                  *backends_[worker], config, invocation_index, incumbent,
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
            sync.cv.notify_all();  // under the lock; see exhaustive()
          }
        };
        if (pool_ != nullptr) {
          pool_->submit(std::move(task));
        } else {
          task(0);
        }
      }
    };

    bool aborted = false;
    try {
      std::size_t next_dispatch = 0;
      for (; next_dispatch < std::min(lookahead_, nblocks); ++next_dispatch) {
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
        const Clock::time_point commit_at = Clock::now();
        accounting_.commit_wait_ns += ns_between(block_done_at[b], commit_at);
        accounting_.tasks += pending[b].size();
        util::Profiler& profiler = util::Profiler::instance();
        profiler.record(util::ProfileCategory::CommitWait,
                        profiler.to_ticks(block_done_at[b]),
                        profiler.to_ticks(commit_at), 0.0, b);
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

}  // namespace rooftune::core

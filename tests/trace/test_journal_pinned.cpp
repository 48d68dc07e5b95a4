// TraceJournal byte pins: the exact bytes str() writes for a hand-built
// event list that reaches every record kind and every optional field, as
// FNV-1a digests.  A storage or merge change inside the journal must leave
// these digests untouched; a schema change updates them together with
// docs/observability.md.  The same list, split across threads, checks that
// concurrent emission merges to the single-threaded bytes.

#include "trace/journal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/sched_stats.hpp"
#include "core/trace_events.hpp"
#include "telemetry/environment.hpp"
#include "telemetry/sidecar.hpp"
#include "trace/reader.hpp"

namespace rooftune::trace {
namespace {

using core::StopReason;
using Kind = core::TraceEvent::Kind;

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

core::Configuration cfg(std::int64_t m, std::int64_t n) {
  return core::Configuration({{"m", m}, {"n", n}});
}

core::TraceEvent at(Kind kind, std::uint64_t epoch, std::uint64_t ord,
                    std::uint64_t inv, int rank) {
  core::TraceEvent e;
  e.kind = kind;
  e.epoch = epoch;
  e.config_ordinal = ord;
  e.invocation = inv;
  e.rank = rank;
  return e;
}

/// Every kind, both shapes of SurrogateFit and PruneBatch, null and
/// non-null incumbent/ci/predicted/oi, flops and bytes, scaled and unscaled
/// counters, an arena delta, telemetry (routed away from the journal),
/// escaped config keys, non-finite and long-fraction doubles, and same-cell
/// ties.  The journal sorts by cell (epoch, ord, inv, rank), so only the
/// order of records sharing a cell matters: adjacent in the list, that
/// order is the emission order the journal must keep.
std::vector<core::TraceEvent> pinned_events() {
  std::vector<core::TraceEvent> events;

  // Cell (0,0,0,0): a resume record and the frozen incumbent share the
  // cell, so only emission order separates them (three records here).
  {
    auto resume = at(Kind::Resume, 0, 0, 0, 0);
    resume.restored_configs = 3;
    events.push_back(resume);
    auto inc = at(Kind::IncumbentUpdate, 0, 0, 0, 0);
    inc.config = cfg(64, 128);
    inc.value = 1.0 / 3.0;
    events.push_back(inc);
    auto inc2 = at(Kind::IncumbentUpdate, 0, 0, 0, 0);
    inc2.config = cfg(32, 128);
    inc2.value = 0.25;
    events.push_back(inc2);
  }

  // Iteration-level stop with a CI and an incumbent.
  {
    auto stop = at(Kind::StopDecision, 0, 0, 0, 1);
    stop.config = cfg(64, 128);
    stop.reason = StopReason::Converged;
    stop.count = 17;
    stop.mean = 123.456789012345;
    stop.have_ci = true;
    stop.ci_lower = 120.5;
    stop.ci_upper = 126.125;
    stop.accumulated_s = 0.0421;
    stop.incumbent = 99.5;
    events.push_back(stop);
  }
  // Invocation: flops and bytes, unscaled counters, arena delta, telemetry.
  {
    auto inv = at(Kind::Invocation, 0, 0, 0, 2);
    inv.config = cfg(64, 128);
    inv.reason = StopReason::Converged;
    inv.iterations = 17;
    inv.kernel_s = 0.0421;
    inv.setup_s = 0.003;
    inv.wall_s = 0.0451;
    inv.deterministic_timing = true;
    inv.mean = 123.456789012345;
    inv.stddev = 1.75;
    inv.trend_rising = true;
    inv.flops = 2.5e9;
    inv.bytes = 1.25e8;
    core::CounterSample counters;
    counters.cycles = 1000000;
    counters.instructions = 2500000;
    counters.llc_misses = 4321;
    counters.valid = true;
    inv.counters = counters;
    util::ArenaStats arena;
    arena.leases = 3;
    arena.slab_hits = 2;
    arena.slab_misses = 1;
    arena.allocations = 1;
    arena.bytes_leased = 3u << 20;
    arena.bytes_reserved = 4u << 20;
    arena.pages_touched = 1024;
    inv.arena_delta = arena;
    core::TelemetrySpan span;
    span.freq_begin_mhz = 2400.0;
    span.freq_end_mhz = 2300.0;
    span.freq_mean_mhz = 2350.0;
    span.temp_c = 61.5;
    span.pkg_joules = 12.25;
    span.valid = true;
    inv.telemetry = span;
    events.push_back(inv);
  }
  // Invocation without flops/bytes, with scaled counters and no telemetry.
  {
    auto inv = at(Kind::Invocation, 0, 0, 1, 2);
    inv.config = cfg(64, 128);
    inv.reason = StopReason::MaxTime;
    inv.iterations = 5;
    inv.kernel_s = 0.01;
    inv.setup_s = 0.0;
    inv.wall_s = 0.01;
    inv.mean = -0.0;
    inv.stddev = 0.5;
    core::CounterSample counters;
    counters.cycles = 7;
    counters.instructions = 11;
    counters.llc_misses = 13;
    counters.time_enabled_ns = 2000;
    counters.time_running_ns = 500;
    counters.scaled = true;
    counters.valid = true;
    inv.counters = counters;
    events.push_back(inv);
  }
  // Invocation-level stop: no CI, and an infinite incumbent (serialized as
  // null); an invalid counter sample on an invocation is not serialized.
  {
    auto stop = at(Kind::StopDecision, 0, 0, 1, 3);
    stop.config = cfg(64, 128);
    stop.outer_level = true;
    stop.reason = StopReason::MaxCount;
    stop.count = 2;
    stop.mean = 1e300;
    stop.incumbent = -std::numeric_limits<double>::infinity();
    events.push_back(stop);
    auto inv = at(Kind::Invocation, 0, 0, 1, 3);
    inv.config = cfg(64, 128);
    inv.reason = StopReason::None;
    core::CounterSample invalid;
    invalid.cycles = 99;
    inv.counters = invalid;
    events.push_back(inv);
  }
  {
    auto done = at(Kind::ConfigDone, 0, 0, 1, 4);
    done.config = cfg(64, 128);
    done.reason = StopReason::PrunedByBest;
    done.value = 123.5;
    done.pruned = true;
    done.iterations = 22;
    done.kernel_s = 0.0521;
    done.setup_s = 0.003;
    events.push_back(done);
  }

  // Racing: both elimination shapes and a round summary.
  {
    auto elim = at(Kind::Elimination, 1, 2, 0, 5);
    elim.config = cfg(16, 8);
    elim.basis = "inner-prune";
    elim.count = 4;
    elim.mean = 10.0;
    events.push_back(elim);
    auto elim2 = at(Kind::Elimination, 1, 3, 0, 5);
    elim2.config = cfg(16, 16);
    elim2.basis = "invocation-ci";
    elim2.count = 3;
    elim2.mean = 11.0;
    elim2.have_ci = true;
    elim2.ci_lower = 10.5;
    elim2.ci_upper = 11.5;
    elim2.leader_ordinal = 0;
    elim2.leader_ci_lower = 120.0;
    elim2.leader_ci_upper = 127.0;
    events.push_back(elim2);
    auto round = at(Kind::Round, 1, 0, 0, 6);
    round.survivors_before = 9;
    round.survivors_after = 7;
    round.eliminated = 2;
    round.finished = 1;
    events.push_back(round);
  }

  // Surrogate: both shapes of each, predicted null and non-null.
  {
    auto fit = at(Kind::SurrogateFit, 2, 0, 0, 6);
    fit.count = 24;
    fit.r2 = 0.987654321;
    fit.model_log_scale = true;
    events.push_back(fit);
    auto fit_raw = at(Kind::SurrogateFit, 2, 1, 0, 6);
    fit_raw.count = 8;
    fit_raw.r2 = -0.5;
    events.push_back(fit_raw);
    auto seed = at(Kind::SurrogateFit, 2, 4, 0, 4);
    seed.config = cfg(8, 8);
    seed.predicted = 77.125;
    seed.value = 80.0;
    events.push_back(seed);
    auto seed2 = at(Kind::SurrogateFit, 2, 5, 0, 4);
    seed2.config = cfg(8, 16);
    seed2.value = 81.0;
    events.push_back(seed2);
    auto batch = at(Kind::PruneBatch, 3, 0, 0, 6);
    batch.scanned = 100;
    batch.kept = 12;
    events.push_back(batch);
    auto kept = at(Kind::PruneBatch, 3, 6, 0, 4);
    kept.config = cfg(4, 4);
    kept.predicted = 90.5;
    events.push_back(kept);
    auto kept2 = at(Kind::PruneBatch, 3, 7, 0, 4);
    kept2.config = cfg(4, 8);
    events.push_back(kept2);
  }

  // Counter prune: with and without a measured OI and an incumbent.
  {
    auto prune = at(Kind::CounterPrune, 4, 8, 2, 5);
    prune.config = cfg(2, 2);
    prune.basis = "dram-bound";
    prune.bound = 61.25;
    prune.margin = 0.25;
    prune.oi = 0.957;
    prune.widened = true;
    prune.incumbent = 412.5;
    prune.count = 2;
    prune.mean = 44.875;
    events.push_back(prune);
    auto skip = at(Kind::CounterPrune, 4, 9, 0, 1);
    skip.config = cfg(2, 4);
    skip.basis = "latency-bound";
    skip.bound = 12.5;
    skip.margin = 0.0;
    events.push_back(skip);
  }

  // Escaped parameter names, and a same-cell tie at rank 7.
  {
    auto done = at(Kind::ConfigDone, 5, 10, 0, 4);
    done.config = core::Configuration(
        {{"quote\"d", 1}, {"back\\slash", -2}, {"ctrl\x01\t", 3},
         {"caf\xc3\xa9", 4}});
    done.reason = StopReason::MaxCount;
    done.value = 5.0;
    events.push_back(done);
    auto last = at(Kind::IncumbentUpdate, 5, 10, 0, 7);
    last.config = cfg(1, 1);
    last.value = 2.0;
    events.push_back(last);
    auto last2 = at(Kind::IncumbentUpdate, 5, 10, 0, 7);
    last2.config = cfg(1, 2);
    last2.value = 3.0;
    events.push_back(last2);
  }
  return events;
}

/// A fixed fingerprint: every field set, one string needing escapes.
telemetry::EnvironmentFingerprint pinned_environment() {
  return {.cpu_model = "Intel(R) Xeon(R) Gold 6148 \"test\"",
          .uarch = "GenuineIntel 6/85/4",
          .logical_cpus = 80,
          .physical_cores = 40,
          .smt = 2,
          .numa_nodes = 2,
          .governor = "performance",
          .freq_min_khz = 1000000,
          .freq_max_khz = 3700000,
          .turbo = "off",
          .thp = "madvise",
          .aslr = "2",
          .compiler = "gcc 12",
          .build = "Release -O2"};
}

RunSummary summary_with_best() {
  RunSummary s;
  s.configs = 11;
  s.pruned = 4;
  s.invocations = 29;
  s.iterations = 377;
  s.best = 412.5;
  return s;
}

using Cell = std::vector<core::TraceEvent>;

/// The list split into runs of adjacent records sharing one sort key; a
/// run keeps its list order, the emission order its ties must keep.
std::vector<Cell> cells_of(const std::vector<core::TraceEvent>& events) {
  const auto key = [](const core::TraceEvent& e) {
    return std::make_tuple(e.epoch, e.config_ordinal, e.invocation, e.rank);
  };
  std::vector<Cell> cells;
  for (const auto& e : events) {
    if (cells.empty() || key(cells.back().front()) != key(e)) cells.emplace_back();
    cells.back().push_back(e);
  }
  return cells;
}

TEST(TraceJournalPinned, EveryKindAndShape) {
  telemetry::TelemetrySidecar sidecar;
  JournalOptions options;
  options.sidecar = &sidecar;
  TraceJournal journal(options);
  journal.begin_run({"dgemm", "GFLOP/s", "racing"});
  const auto events = pinned_events();
  // Cells in reverse, so the merge, not the emission order, decides.
  const auto cells = cells_of(events);
  for (auto cell = cells.rbegin(); cell != cells.rend(); ++cell) {
    for (const auto& e : *cell) journal.emit(e);
  }
  journal.finish_run(summary_with_best());

  const std::string text = journal.str();
  EXPECT_EQ(journal.event_count(), events.size());
  EXPECT_EQ(fnv1a(text), 0x80c83242d364e6e6ull) << text;
  // Telemetry went to the sidecar, never into the journal.
  EXPECT_EQ(text.find("freq"), std::string::npos);
  EXPECT_EQ(sidecar.span_count(), 1u);
  EXPECT_EQ(fnv1a(sidecar.str()), 0xc2ee2450775210b8ull) << sidecar.str();
  // The strict reader accepts every record.
  EXPECT_EQ(read_journal(text).records.size(), events.size());
}

TEST(TraceJournalPinned, ProvenanceSchedulerAndSummaryWithoutBest) {
  JournalOptions options;
  options.provenance = pinned_environment();
  TraceJournal journal(options);
  journal.begin_run({"triad", "GB/s", "exhaustive"});
  const auto events = pinned_events();
  for (const auto& e : events) journal.emit(e);
  RunSummary summary = summary_with_best();
  summary.best.reset();
  core::SchedulerStats sched;
  sched.mode = "pipeline";
  sched.workers = 4;
  sched.lookahead = 8;
  sched.tasks = 29;
  sched.parks = 3;
  sched.idle_ns = 1500;
  sched.busy_ns = 98500;
  sched.commit_wait_ns = 250;
  sched.span_ns = 25000;
  summary.scheduler = sched;
  journal.finish_run(summary);

  const std::string text = journal.str();
  EXPECT_EQ(fnv1a(text), 0x93324998dd6f220aull) << text;
  const Journal parsed = read_journal(text);
  ASSERT_TRUE(parsed.provenance.has_value());
  EXPECT_EQ(parsed.provenance->cpu_model, pinned_environment().cpu_model);
  ASSERT_TRUE(parsed.summary.has_value());
  EXPECT_FALSE(parsed.summary->best.has_value());
}

// Neither begin_run nor finish_run: an empty run header and no summary.
TEST(TraceJournalPinned, HeaderlessJournal) {
  TraceJournal journal;
  EXPECT_EQ(journal.str(),
            "{\"t\":\"run\",\"v\":1,\"benchmark\":\"\",\"metric\":\"\","
            "\"strategy\":\"\"}\n");
  const auto events = pinned_events();
  journal.emit(events[3]);
  EXPECT_EQ(fnv1a(journal.str()), 0x6f4c00aa29813ee4ull) << journal.str();
}

// Four threads emit disjoint cells, each in a scrambled order; the merge
// must give the bytes of one thread emitting the same events.
TEST(TraceJournal, ConcurrentEmitMatchesSerialEmit) {
  const auto events = pinned_events();
  TraceJournal serial;
  serial.begin_run({"dgemm", "GFLOP/s", "racing"});
  for (const auto& e : events) serial.emit(e);
  serial.finish_run(summary_with_best());

  // Deal the cells round-robin to four threads.
  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<Cell>> work(kThreads);
  const auto cells = cells_of(events);
  for (std::size_t c = 0; c < cells.size(); ++c) work[c % kThreads].push_back(cells[c]);

  for (int repeat = 0; repeat < 8; ++repeat) {
    TraceJournal journal;
    journal.begin_run({"dgemm", "GFLOP/s", "racing"});
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        // Each thread emits its cells in its own seeded shuffle.
        std::vector<std::size_t> order(work[t].size());
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::mt19937 rng(static_cast<unsigned>(repeat * 31 + t));
        std::shuffle(order.begin(), order.end(), rng);
        for (const std::size_t c : order) {
          for (const auto& e : work[t][c]) journal.emit(e);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    journal.finish_run(summary_with_best());
    EXPECT_EQ(journal.event_count(), events.size());
    EXPECT_EQ(journal.str(), serial.str()) << "repeat " << repeat;
  }
}

}  // namespace
}  // namespace rooftune::trace

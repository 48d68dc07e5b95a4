// The journal's headline guarantee: on the simulated backends the
// serialized trace is byte-identical run to run and across ParallelEvaluator
// worker counts, and the analyzer's per-stop-condition accounting partitions
// the run totals exactly.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/autotuner.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/spaces.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "trace/analyze.hpp"
#include "trace/journal.hpp"
#include "trace/reader.hpp"

namespace rooftune::trace {
namespace {

core::TunerOptions traced_options(TraceJournal& journal) {
  core::TunerOptions options;
  options.invocations = 3;
  options.iterations = 25;
  options.inner_prune = true;
  options.outer_prune = true;
  options.trace = &journal;
  return options;
}

core::ParallelEvaluator::BackendFactory sim_factory() {
  return [] {
    simhw::SimOptions sim;
    sim.seed = 2021;
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6148"), sim);
  };
}

void finish(TraceJournal& journal, const core::TuningRun& run,
            const char* strategy) {
  journal.begin_run({"dgemm", "GFLOP/s", strategy});
  RunSummary summary;
  summary.configs = run.results.size();
  summary.pruned = run.pruned_configs;
  summary.invocations = run.total_invocations;
  summary.iterations = run.total_iterations;
  if (run.best_index.has_value()) summary.best = run.best_value();
  journal.finish_run(summary);
}

/// One traced parallel run over the reduced DGEMM space, serialized.
std::string parallel_journal(
    std::size_t workers, bool racing, std::size_t lookahead = 1,
    core::ParallelEvaluator::BackendFactory factory = sim_factory(),
    std::size_t wave = 8) {
  TraceJournal journal;
  core::TunerOptions options = traced_options(journal);
  if (racing) options.strategy = core::SearchStrategy::Racing;

  core::ParallelOptions popts;
  popts.workers = workers;
  popts.deterministic = true;
  popts.wave = wave;
  popts.lookahead = lookahead;
  const core::ParallelEvaluator evaluator(std::move(factory), options, popts);
  const core::TuningRun run =
      evaluator.run(core::dgemm_reduced_space().enumerate());
  finish(journal, run, racing ? "racing" : "exhaustive");
  return journal.str();
}

std::string serial_journal(bool racing) {
  TraceJournal journal;
  core::TunerOptions options = traced_options(journal);
  if (racing) options.strategy = core::SearchStrategy::Racing;
  auto backend = sim_factory()();
  const core::TuningRun run =
      core::Autotuner(core::dgemm_reduced_space(), options).run(*backend);
  finish(journal, run, racing ? "racing" : "exhaustive");
  return journal.str();
}

// --- counter-prune determinism -------------------------------------------
//
// A space built to exercise both counter-prune paths: the first 16 configs
// (n = 256, one racing block) are cache-resident and calibrate the analytic
// OI prediction; the second block mixes thin low-intensity shapes whose
// DRAM bound provably cannot reach the incumbent — skipped before their
// first invocation — with healthy shapes that keep racing.
core::SearchSpace counter_space() {
  core::SearchSpace space;
  space.add_range(core::ParameterRange("n", {256, 4000}));
  space.add_range(core::ParameterRange("m", {256, 4000}));
  space.add_range(core::ParameterRange("k", {1, 2, 4, 8, 64, 128, 192, 256}));
  return space;
}

core::TunerOptions counter_options(TraceJournal& journal) {
  core::TunerOptions options = traced_options(journal);
  options.strategy = core::SearchStrategy::Racing;
  options.counter_prune = true;
  const simhw::MachineSpec machine = simhw::machine_by_name("gold6148");
  options.counter_peak_gflops = machine.theoretical_flops(1).value;
  options.counter_dram_gbps = machine.theoretical_bandwidth(1).value;
  return options;
}

core::ParallelEvaluator::BackendFactory counter_factory() {
  return [] {
    simhw::SimOptions sim;
    sim.seed = 2021;
    sim.counter_model = true;
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6148"), sim);
  };
}

std::string counter_serial_journal() {
  TraceJournal journal;
  core::TunerOptions options = counter_options(journal);
  auto backend = counter_factory()();
  const core::TuningRun run =
      core::Autotuner(counter_space(), options).run(*backend);
  finish(journal, run, "racing");
  return journal.str();
}

std::string counter_parallel_journal(std::size_t workers) {
  TraceJournal journal;
  core::TunerOptions options = counter_options(journal);
  core::ParallelOptions popts;
  popts.workers = workers;
  popts.deterministic = true;
  popts.wave = 8;
  const core::ParallelEvaluator evaluator(counter_factory(), options, popts);
  const core::TuningRun run = evaluator.run(counter_space().enumerate());
  finish(journal, run, "racing");
  return journal.str();
}

TEST(TraceDeterminism, CounterPruneJournalIsBitIdenticalRunToRun) {
  const std::string first = counter_serial_journal();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, counter_serial_journal());
}

// The prune/skip decisions are made on the coordinating thread against the
// block's frozen incumbent, so the journal — including which configurations
// were skipped with zero invocations — must not depend on worker count.
TEST(TraceDeterminism, CounterPruneJournalIsWorkerCountInvariant) {
  const std::string one = counter_parallel_journal(1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, counter_parallel_journal(2));
  EXPECT_EQ(one, counter_parallel_journal(8));
}

// The journal must actually witness both paths (measured prunes and/or
// calibrated pre-invocation skips), the analyzer must account them, and
// pruning must not move the optimum on this space.
TEST(TraceDeterminism, CounterPruneJournalRecordsSkipsAndKeepsTheOptimum) {
  const Journal journal = read_journal(counter_serial_journal());
  std::uint64_t skips = 0;
  for (const auto& record : journal.records) {
    if (record.event.kind == core::TraceEvent::Kind::CounterPrune &&
        record.event.count == 0) {
      ++skips;
    }
  }
  EXPECT_GT(skips, 0u);

  const TraceAnalysis analysis = analyze(journal);
  ASSERT_TRUE(analysis.counter_prune.has_value());
  EXPECT_EQ(analysis.counter_prune->skipped, skips);
  EXPECT_GE(analysis.counter_prune->pruned, analysis.counter_prune->skipped);
  EXPECT_TRUE(analysis.inconsistencies.empty())
      << analysis.inconsistencies.front();

  // Same space, pruning off: the winner must agree.
  TraceJournal scratch;
  core::TunerOptions plain = counter_options(scratch);
  plain.counter_prune = false;
  auto backend = counter_factory()();
  const core::TuningRun unpruned =
      core::Autotuner(counter_space(), plain).run(*backend);
  auto pruned_backend = counter_factory()();
  TraceJournal scratch2;
  const core::TuningRun pruned =
      core::Autotuner(counter_space(), counter_options(scratch2))
          .run(*pruned_backend);
  ASSERT_TRUE(pruned.best_index.has_value());
  EXPECT_EQ(pruned.best_config(), unpruned.best_config());
  EXPECT_LT(pruned.total_invocations, unpruned.total_invocations);
}

TEST(TraceDeterminism, SerialJournalIsBitIdenticalRunToRun) {
  const std::string first = serial_journal(/*racing=*/false);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, serial_journal(/*racing=*/false));
}

TEST(TraceDeterminism, RacingJournalIsBitIdenticalRunToRun) {
  const std::string first = serial_journal(/*racing=*/true);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, serial_journal(/*racing=*/true));
}

TEST(TraceDeterminism, WaveJournalIsWorkerCountInvariant) {
  const std::string one = parallel_journal(1, /*racing=*/false);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, parallel_journal(2, /*racing=*/false));
  EXPECT_EQ(one, parallel_journal(8, /*racing=*/false));
}

TEST(TraceDeterminism, RacingJournalIsWorkerCountInvariant) {
  const std::string one = parallel_journal(1, /*racing=*/true);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, parallel_journal(2, /*racing=*/true));
  EXPECT_EQ(one, parallel_journal(8, /*racing=*/true));
}

// --- pipeline scheduler ----------------------------------------------------

// With one-config waves at lookahead 1 every configuration sees the
// incumbent of all earlier ones — the serial Autotuner's schedule — so the
// journal must be byte-identical to the serial engine's, for both
// strategies and any worker count (1 worker runs inline, without a pool).
TEST(TraceDeterminism, PipelineWave1JournalMatchesSerialJournal) {
  for (const bool racing : {false, true}) {
    const std::string serial = serial_journal(racing);
    EXPECT_FALSE(serial.empty());
    for (const std::size_t workers : {1, 4, 8}) {
      EXPECT_EQ(serial,
                parallel_journal(workers, racing, 1, sim_factory(), /*wave=*/1))
          << (racing ? "racing" : "exhaustive") << " at " << workers
          << " workers";
    }
  }
}

// Lookahead > 1 changes which incumbent snapshot each epoch sees, so the
// journal differs from lookahead 1 — but it must stay a pure function of
// the schedule: byte-identical across 1/2/8 workers and reruns.
TEST(TraceDeterminism, PipelineLookaheadJournalIsWorkerCountInvariant) {
  for (const bool racing : {false, true}) {
    const std::string one = parallel_journal(1, racing, 8);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, parallel_journal(2, racing, 8));
    EXPECT_EQ(one, parallel_journal(8, racing, 8));
    // Rerun at the same worker count: no hidden wall-clock dependence.
    EXPECT_EQ(one, parallel_journal(8, racing, 8));
  }
}

/// One traced surrogate run (seed waves + fit/prune + confirm race).
std::string surrogate_journal(std::size_t workers, std::size_t lookahead) {
  TraceJournal journal;
  core::TunerOptions options = traced_options(journal);
  options.strategy = core::SearchStrategy::Surrogate;
  options.surrogate_seed_budget = 24;
  options.surrogate_confirm_top = 8;

  core::ParallelOptions popts;
  popts.workers = workers;
  popts.deterministic = true;
  popts.wave = 8;
  popts.lookahead = lookahead;
  const core::ParallelEvaluator evaluator(sim_factory(), options, popts);
  const core::TuningRun run = evaluator.run(core::dgemm_reduced_space());
  finish(journal, run, "surrogate");
  return journal.str();
}

// The surrogate pipeline shares one pool across the seed and confirm
// phases; the fitted model, the confirm set, and every traced event must
// still be worker-count- and rerun-invariant at any fixed lookahead.
TEST(TraceDeterminism, SurrogateJournalIsWorkerCountInvariant) {
  for (const std::size_t lookahead : {std::size_t{1}, std::size_t{4}}) {
    const std::string one = surrogate_journal(1, lookahead);
    EXPECT_FALSE(one.empty());
    EXPECT_EQ(one, surrogate_journal(2, lookahead)) << lookahead;
    EXPECT_EQ(one, surrogate_journal(8, lookahead)) << lookahead;
    EXPECT_EQ(one, surrogate_journal(8, lookahead)) << lookahead;
  }
}

// The new kernels carry the same headline guarantee as DGEMM: their
// journals are byte-identical across worker counts (SpMV's hub-row hash,
// the stencil's tiling texture, and both counter models are pure functions
// of (config, seed), never of scheduling).
std::string kernel_parallel_journal(const std::string& kernel,
                                    std::size_t workers) {
  TraceJournal journal;
  const core::TunerOptions options = traced_options(journal);
  core::ParallelEvaluator::BackendFactory factory = [kernel] {
    simhw::SimOptions sim;
    sim.seed = 2021;
    const auto machine = simhw::machine_by_name("2650v4");
    return kernel == "spmv"
               ? std::unique_ptr<core::Backend>(
                     std::make_unique<simhw::SimSpmvBackend>(machine, sim))
               : std::unique_ptr<core::Backend>(
                     std::make_unique<simhw::SimStencilBackend>(machine, sim,
                                                                1024));
  };
  const core::SearchSpace space =
      kernel == "spmv" ? core::spmv_space() : core::stencil_space();
  core::ParallelOptions popts;
  popts.workers = workers;
  popts.deterministic = true;
  popts.wave = 8;
  const core::ParallelEvaluator evaluator(std::move(factory), options, popts);
  const core::TuningRun run = evaluator.run(space.enumerate());
  finish(journal, run, "exhaustive");
  return journal.str();
}

TEST(TraceDeterminism, SpmvJournalIsWorkerCountInvariant) {
  const std::string one = kernel_parallel_journal("spmv", 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, kernel_parallel_journal("spmv", 2));
  EXPECT_EQ(one, kernel_parallel_journal("spmv", 8));
}

TEST(TraceDeterminism, StencilJournalIsWorkerCountInvariant) {
  const std::string one = kernel_parallel_journal("stencil", 1);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, kernel_parallel_journal("stencil", 2));
  EXPECT_EQ(one, kernel_parallel_journal("stencil", 8));
}

// SimOptions::cost_skew stretches host wall-clock only: the virtual clock,
// samples, and journal bytes must be identical with the knob on or off.
TEST(TraceDeterminism, CostSkewLeavesJournalBytesUntouched) {
  const auto skewed_factory = [] {
    simhw::SimOptions sim;
    sim.seed = 2021;
    sim.cost_skew = 8.0;
    sim.cost_base_s = 1e-5;  // keep the test fast; any value must do
    return std::make_unique<simhw::SimDgemmBackend>(
        simhw::machine_by_name("gold6148"), sim);
  };
  for (const bool racing : {false, true}) {
    EXPECT_EQ(parallel_journal(4, racing, 2),
              parallel_journal(4, racing, 2, skewed_factory))
        << (racing ? "racing" : "exhaustive");
  }
}

/// Every iteration the run spent must be accounted to exactly one
/// iteration-level stop decision, so the per-reason sums partition the
/// summary totals; analyze() flags any mismatch as an inconsistency.
TEST(TraceAnalysisTest, StopAccountingPartitionsSummaryTotals) {
  for (const bool racing : {false, true}) {
    const Journal journal = read_journal(serial_journal(racing));
    const TraceAnalysis analysis = analyze(journal);
    EXPECT_TRUE(analysis.inconsistencies.empty())
        << analysis.inconsistencies.front();

    std::uint64_t decisions = 0;
    std::uint64_t iterations = 0;
    for (const auto& [reason, accounting] : analysis.by_reason) {
      decisions += accounting.decisions;
      iterations += accounting.iterations;
    }
    ASSERT_TRUE(journal.summary.has_value());
    EXPECT_EQ(decisions, journal.summary->invocations);
    EXPECT_EQ(iterations, journal.summary->iterations);
    EXPECT_EQ(decisions, analysis.total_invocations);
    EXPECT_EQ(iterations, analysis.total_iterations);
    if (racing) {
      EXPECT_FALSE(analysis.rounds.empty());
      EXPECT_GT(analysis.saved_iterations, 0u);
    }
  }
}

/// The racing journal must record at least one elimination with the leader
/// it lost to, and the analyzer must surface it on the timeline.
TEST(TraceAnalysisTest, RacingTimelineRecordsEliminations) {
  const Journal journal = read_journal(serial_journal(/*racing=*/true));
  const TraceAnalysis analysis = analyze(journal);
  std::uint64_t eliminated = 0;
  for (const auto& config : analysis.configs) {
    if (config.outcome == "eliminated") {
      ++eliminated;
      EXPECT_TRUE(config.eliminated_round.has_value());
      EXPECT_FALSE(config.elimination_basis.empty());
    }
  }
  EXPECT_GT(eliminated, 0u);
}

}  // namespace
}  // namespace rooftune::trace

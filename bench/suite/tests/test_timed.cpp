// The traced run's decorators must be invisible to the tuner: wrapping the
// backends in TimedBackend and the journal in TimedSink leaves the
// TuningRun and the journal bytes exactly as they are without them.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "core/autotuner.hpp"
#include "core/parallel_evaluator.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "harness/timed.hpp"
#include "simhw/machine.hpp"
#include "simhw/sim_backend.hpp"
#include "trace/journal.hpp"

namespace rooftune::suite {
namespace {

struct Outcome {
  core::TuningRun run;
  std::string journal;
};

void expect_same_run(const core::TuningRun& a, const core::TuningRun& b) {
  ASSERT_EQ(a.results.size(), b.results.size());
  EXPECT_EQ(a.best_index, b.best_index);
  EXPECT_EQ(a.total_invocations, b.total_invocations);
  EXPECT_EQ(a.total_iterations, b.total_iterations);
  EXPECT_EQ(a.pruned_configs, b.pruned_configs);
  for (std::size_t i = 0; i < a.results.size(); ++i) {
    EXPECT_EQ(a.results[i].config, b.results[i].config);
    EXPECT_EQ(a.results[i].value(), b.results[i].value()) << i;
    EXPECT_EQ(a.results[i].invocations.size(), b.results[i].invocations.size()) << i;
  }
}

/// Racing C+I+O over the grid-2 space on `workers` pool workers, with a
/// journal; `tracer` non-null decorates the backends and the journal.
Outcome racing(std::size_t workers, Tracer* tracer) {
  const simhw::MachineSpec machine = simhw::machine_by_name("gold6148");
  simhw::SimOptions sim;
  sim.seed = 2021;
  core::ParallelEvaluator::BackendFactory factory =
      [machine, sim]() -> std::unique_ptr<core::Backend> {
    return std::make_unique<simhw::SimDgemmBackend>(machine, sim);
  };
  trace::TraceJournal journal;
  std::optional<TimedSink> sink;
  core::TunerOptions options = core::technique_options(core::Technique::CIOuter);
  options.strategy = core::SearchStrategy::Racing;
  options.trace = &journal;
  if (tracer != nullptr) {
    factory = timed_factory(std::move(factory), *tracer, kSimSpans);
    sink.emplace(journal, *tracer);
    options.trace = &*sink;
  }
  core::ParallelOptions parallel;
  parallel.workers = workers;
  parallel.deterministic = true;
  parallel.lookahead = 4;
  Outcome out;
  {
    Span span(tracer, "parallel_evaluator.run");
    out.run = core::ParallelEvaluator(factory, options, parallel)
                  .run(core::dgemm_scaled_space(2));
  }
  journal.begin_run({"dgemm", "GFLOP/s", "racing"});
  journal.finish_run({});
  out.journal = journal.str();
  return out;
}

TEST(TimedDecorators, ParallelRunAndJournalUnchangedAcrossWorkerCounts) {
  const Outcome plain = racing(1, nullptr);
  ASSERT_GT(plain.journal.size(), 0u);
  for (const std::size_t workers : {1u, 3u}) {
    Tracer tracer;
    const Outcome timed = racing(workers, &tracer);
    expect_same_run(plain.run, timed.run);
    EXPECT_EQ(plain.journal, timed.journal) << workers << " workers";
    // The decorators did record: backend calls and journal emits.
    const auto aggregates = tracer.aggregates();
    EXPECT_GT(aggregates.at("simhw.run_iteration").calls, 0u);
    EXPECT_GT(aggregates.at("journal.emit").calls, 0u);
    EXPECT_EQ(aggregates.at("simhw.end_invocation").calls, timed.run.total_invocations);
  }
}

TEST(TimedDecorators, SerialRunUnchanged) {
  const simhw::MachineSpec machine = simhw::machine_by_name("2695v4");
  const auto options = core::technique_options(core::Technique::CIOuter, {}, 0, 100);
  simhw::SimDgemmBackend plain_backend(machine, {});
  const core::TuningRun plain =
      core::Autotuner(core::dgemm_reduced_space(), options).run(plain_backend);

  Tracer tracer;
  simhw::SimDgemmBackend backend(machine, {});
  TimedBackend timed(backend, tracer, kSimSpans);
  const core::TuningRun run = core::Autotuner(core::dgemm_reduced_space(), options).run(timed);
  expect_same_run(plain, run);
  EXPECT_EQ(plain.total_time.value, run.total_time.value);
  EXPECT_EQ(tracer.aggregates().at("simhw.run_iteration").calls, run.total_iterations);
}

TEST(Tracer, SelfTimeExcludesChildrenAndCoverageCountsTopLevel) {
  Tracer tracer;
  {
    Span outer(&tracer, "evaluator.run");
    Span inner(&tracer, "simhw.run_iteration");
  }
  const auto aggregates = tracer.aggregates();
  const auto& outer = aggregates.at("evaluator.run");
  const auto& inner = aggregates.at("simhw.run_iteration");
  EXPECT_EQ(outer.self_ns + inner.total_ns, outer.total_ns);
  EXPECT_EQ(tracer.top_level_ns(), outer.total_ns);
  const std::string json = tracer.chrome_json();
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

}  // namespace
}  // namespace rooftune::suite

#include "core/session.hpp"

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "fake_backend.hpp"
#include "simhw/sim_backend.hpp"
#include "core/report.hpp"
#include "core/spaces.hpp"
#include "core/techniques.hpp"
#include "trace/export.hpp"

namespace rooftune::core {
namespace {

using testing::FakeBackend;

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("rooftune_ckpt_" +
              std::to_string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->line())))
                .string();
    std::filesystem::remove(path_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
  }

  std::string path_;
};

SearchSpace small_space() {
  SearchSpace space;
  space.add_range(ParameterRange("a", {1, 2, 3, 4}));
  return space;
}

TunerOptions quick() {
  TunerOptions o;
  o.invocations = 2;
  o.iterations = 3;
  return o;
}

void program(FakeBackend& backend) {
  for (std::int64_t a = 1; a <= 4; ++a) {
    backend.set_value(Configuration({{"a", a}}), 10.0 * static_cast<double>(a));
  }
}

TEST_F(SessionTest, FreshRunMatchesAutotunerAndCleansUp) {
  FakeBackend b1, b2;
  program(b1);
  program(b2);
  TuningSession session(small_space(), quick(), path_);
  const auto run = session.run(b1);
  const auto reference = Autotuner(small_space(), quick()).run(b2);

  EXPECT_EQ(session.resumed_configs(), 0u);
  EXPECT_EQ(run.best_config(), reference.best_config());
  EXPECT_DOUBLE_EQ(run.best_value(), reference.best_value());
  EXPECT_EQ(run.results.size(), reference.results.size());
  EXPECT_FALSE(std::filesystem::exists(path_));  // removed on completion
}

// A backend that throws after N invocations — simulates a SLURM kill.
class DyingBackend final : public FakeBackend {
 public:
  explicit DyingBackend(std::uint64_t die_after) : die_after_(die_after) {}

  void begin_invocation(const Configuration& config,
                        std::uint64_t invocation_index) override {
    if (invocations_started() >= die_after_) throw std::runtime_error("killed");
    FakeBackend::begin_invocation(config, invocation_index);
  }

 private:
  std::uint64_t die_after_;
};

TEST_F(SessionTest, ResumesAfterInterruption) {
  // First attempt dies after the 5th invocation (mid-config 3 of 4).
  {
    DyingBackend dying(5);
    program(dying);
    TuningSession session(small_space(), quick(), path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(path_));  // partial checkpoint kept
  }

  // Resume with a healthy backend: only the invocations the log lacks run.
  FakeBackend healthy;
  program(healthy);
  TuningSession session(small_space(), quick(), path_);
  const auto run = session.run(healthy);

  // Configs 1 and 2 were complete, config 3 had its first invocation.
  EXPECT_EQ(session.resumed_configs(), 3u);
  EXPECT_EQ(healthy.invocations_started(), 3u);  // config 3's second, config 4
  EXPECT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.best_config().at("a"), 4);
  EXPECT_DOUBLE_EQ(run.best_value(), 40.0);
  // Restored results kept their values.
  EXPECT_DOUBLE_EQ(run.results[0].value(), 10.0);
  EXPECT_DOUBLE_EQ(run.results[1].value(), 20.0);
}

TEST_F(SessionTest, SimulatedSessionMatchesAutotunerExactly) {
  // On the deterministic simulator a checkpointed session must land on
  // exactly the same results as the plain autotuner: per-config noise
  // streams are seeded independently of evaluation history.
  const auto machine = simhw::machine_by_name("gold6132");
  const auto options = technique_options(Technique::CIOuter);
  SearchSpace space;
  space.add_range(ParameterRange::doubling("n", 500, 4));
  space.add_range(ParameterRange("m", {512, 4096}));
  space.add_range(ParameterRange("k", {128, 512}));

  simhw::SimDgemmBackend straight(machine, {});
  const auto reference = Autotuner(space, options).run(straight);

  simhw::SimDgemmBackend sessioned(machine, {});
  TuningSession session(space, options, path_);
  const auto run = session.run(sessioned);

  EXPECT_DOUBLE_EQ(run.best_value(), reference.best_value());
  EXPECT_EQ(run.best_config(), reference.best_config());
  ASSERT_EQ(run.results.size(), reference.results.size());
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    EXPECT_DOUBLE_EQ(run.results[i].value(), reference.results[i].value()) << i;
  }
}

TEST_F(SessionTest, RejectsForeignCheckpoint) {
  // Checkpoint written with different options must not be resumed.
  {
    FakeBackend backend;
    program(backend);
    DyingBackend dying(3);
    program(dying);
    TuningSession session(small_space(), quick(), path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
  }
  TunerOptions different = quick();
  different.iterations = 99;
  TuningSession session(small_space(), different, path_);
  FakeBackend backend;
  EXPECT_THROW(static_cast<void>(session.run(backend)), std::runtime_error);
}

TEST_F(SessionTest, RejectsCorruptCheckpoint) {
  std::ofstream(path_) << "{ not json";
  TuningSession session(small_space(), quick(), path_);
  FakeBackend backend;
  EXPECT_THROW(static_cast<void>(session.run(backend)), std::invalid_argument);
}

TEST_F(SessionTest, FingerprintSensitivity) {
  const TuningSession a(small_space(), quick(), path_);
  TunerOptions other = quick();
  other.prune_min_count = 100;
  const TuningSession b(small_space(), other, path_);
  EXPECT_NE(a.fingerprint(), b.fingerprint());

  SearchSpace bigger = small_space();
  bigger.add_range(ParameterRange("b", {1, 2}));
  const TuningSession c(bigger, quick(), path_);
  EXPECT_NE(a.fingerprint(), c.fingerprint());

  const TuningSession same(small_space(), quick(), path_ + "x");
  EXPECT_EQ(a.fingerprint(), same.fingerprint());
}

TEST_F(SessionTest, EmptyPathRejected) {
  EXPECT_THROW(TuningSession(small_space(), quick(), ""), std::invalid_argument);
}

TEST_F(SessionTest, PrunedFlagSurvivesRoundTrip) {
  // Run a pruning session that dies right after a pruned config completes,
  // then resume and check pruned bookkeeping.
  auto options = quick();
  options.inner_prune = true;
  options.outer_prune = true;
  options.order = SearchOrder::Reverse;  // best config first => rest pruned
  {
    DyingBackend dying(/*die after 1st config's 1 invocation + 1 more*/ 2);
    program(dying);
    TuningSession session(small_space(), options, path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
  }
  FakeBackend healthy;
  program(healthy);
  TuningSession session(small_space(), options, path_);
  const auto run = session.run(healthy);
  EXPECT_EQ(run.results.size(), 4u);
  EXPECT_EQ(run.pruned_configs, 3u);  // a=3,2,1 all pruned against a=4
  EXPECT_DOUBLE_EQ(run.best_value(), 40.0);
}

// --- counter-prune across a resume ---------------------------------------

/// Same shape as the trace-determinism counter space: block one (n = 256)
/// calibrates the analytic OI prediction, block two mixes skip targets with
/// healthy shapes.
SearchSpace counter_space() {
  SearchSpace space;
  space.add_range(ParameterRange("n", {256, 4000}));
  space.add_range(ParameterRange("m", {256, 4000}));
  space.add_range(ParameterRange("k", {1, 2, 4, 8, 64, 128, 192, 256}));
  return space;
}

TunerOptions counter_racing_options() {
  TunerOptions o;
  o.invocations = 3;
  o.iterations = 25;
  o.strategy = SearchStrategy::Racing;
  o.counter_prune = true;
  const simhw::MachineSpec machine = simhw::machine_by_name("gold6148");
  o.counter_peak_gflops = machine.theoretical_flops(1).value;
  o.counter_dram_gbps = machine.theoretical_bandwidth(1).value;
  return o;
}

simhw::SimOptions counter_sim_options() {
  simhw::SimOptions sim;
  sim.seed = 2021;
  sim.counter_model = true;
  return sim;
}

std::unique_ptr<simhw::SimDgemmBackend> counter_sim(
    const simhw::SimOptions& sim = counter_sim_options()) {
  return std::make_unique<simhw::SimDgemmBackend>(
      simhw::machine_by_name("gold6148"), sim);
}

/// Forwards everything to a fresh simulated backend but throws after N
/// begin_invocation calls — a SLURM kill mid-race.  With `park` it blocks
/// there instead, for a real SIGKILL to end the process.  (SimDgemmBackend
/// is final, hence the decorator.)
class DyingSimBackend final : public Backend {
 public:
  explicit DyingSimBackend(std::uint64_t die_after, bool park = false,
                           const simhw::SimOptions& sim = counter_sim_options())
      : inner_(counter_sim(sim)), die_after_(die_after), park_(park) {}

  void begin_invocation(const Configuration& config,
                        std::uint64_t invocation_index) override {
    if (started_++ >= die_after_) {
      while (park_) ::pause();
      throw std::runtime_error("killed");
    }
    inner_->begin_invocation(config, invocation_index);
  }
  Sample run_iteration() override { return inner_->run_iteration(); }
  BatchSample run_batch(std::uint64_t count) override {
    return inner_->run_batch(count);
  }
  void end_invocation() override { inner_->end_invocation(); }
  void replay_invocation(const Configuration& config) override {
    inner_->replay_invocation(config);
  }
  [[nodiscard]] const util::Clock& clock() const override {
    return inner_->clock();
  }
  [[nodiscard]] std::optional<util::ArenaStats> arena_stats() const override {
    return inner_->arena_stats();
  }
  [[nodiscard]] std::string metric_name() const override {
    return inner_->metric_name();
  }
  [[nodiscard]] std::optional<Backend::InvocationTiming>
  last_invocation_timing() const override {
    return inner_->last_invocation_timing();
  }
  [[nodiscard]] std::optional<CounterSample> last_invocation_counters()
      const override {
    return inner_->last_invocation_counters();
  }
  [[nodiscard]] std::optional<double> analytic_intensity(
      const Configuration& config) const override {
    return inner_->analytic_intensity(config);
  }
  [[nodiscard]] std::optional<double> flops_per_iteration() const override {
    return inner_->flops_per_iteration();
  }
  [[nodiscard]] std::optional<double> bytes_per_iteration() const override {
    return inner_->bytes_per_iteration();
  }

 private:
  std::unique_ptr<simhw::SimDgemmBackend> inner_;
  std::uint64_t die_after_;
  bool park_;
  std::uint64_t started_ = 0;
};

// An interrupted counter-prune racing session must resume into exactly the
// run an uninterrupted session produces: same values, same stop reasons —
// including which configurations the counter bound eliminated.  The
// calibration state is recomputed from the restored invocation evidence,
// never persisted, so this holds by construction; the test pins it.
TEST_F(SessionTest, CounterPruneRacingResumesBitIdentically) {
  const std::string ref_path = path_ + ".ref";
  TuningSession reference_session(counter_space(), counter_racing_options(),
                                  ref_path);
  auto ref_backend = counter_sim();
  const TuningRun reference = reference_session.run(*ref_backend);
  std::filesystem::remove(ref_path);

  {
    // Die a few invocations short of the finish line: by then at least one
    // round boundary — and its checkpoint — has passed.
    ASSERT_GT(reference.total_invocations, 8u);
    DyingSimBackend dying(reference.total_invocations - 4);
    TuningSession session(counter_space(), counter_racing_options(), path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(path_));
  }
  auto healthy = counter_sim();
  TuningSession session(counter_space(), counter_racing_options(), path_);
  const TuningRun resumed = session.run(*healthy);

  ASSERT_EQ(resumed.results.size(), reference.results.size());
  EXPECT_EQ(resumed.best_config(), reference.best_config());
  EXPECT_DOUBLE_EQ(resumed.best_value(), reference.best_value());
  std::uint64_t counter_stops = 0;
  std::uint64_t skipped = 0;
  for (std::size_t i = 0; i < resumed.results.size(); ++i) {
    EXPECT_EQ(resumed.results[i].config, reference.results[i].config);
    EXPECT_EQ(resumed.results[i].outer_stop, reference.results[i].outer_stop);
    EXPECT_DOUBLE_EQ(resumed.results[i].value(), reference.results[i].value());
    EXPECT_EQ(resumed.results[i].invocations.size(),
              reference.results[i].invocations.size());
    if (resumed.results[i].outer_stop == StopReason::CounterBound) {
      ++counter_stops;
      if (resumed.results[i].invocations.empty()) ++skipped;
    }
  }
  EXPECT_GT(counter_stops, 0u);
  EXPECT_GT(skipped, 0u);  // the pre-invocation path fired and survived
}

// A session killed mid-epoch (between checkpoints, inside a config's
// invocation sequence) must resume into bit-identical results: the resumed
// run and an uninterrupted run agree on every value, stop reason, and the
// invocation counts the incumbent-dependent pruning produced.
TEST_F(SessionTest, MidEpochResumeIsBitIdenticalToUninterruptedRun) {
  auto options = counter_racing_options();
  options.counter_prune = false;  // plain racing; counter path has its own test
  const std::string ref_path = path_ + ".ref";
  TuningSession reference_session(counter_space(), options, ref_path);
  auto ref_backend = counter_sim();
  const TuningRun reference = reference_session.run(*ref_backend);
  std::filesystem::remove(ref_path);

  // Die mid-race, off any round boundary, so the resume replays a partial
  // epoch rather than restarting cleanly at one.
  ASSERT_GT(reference.total_invocations, 11u);
  {
    DyingSimBackend dying(reference.total_invocations / 2 + 1);
    TuningSession session(counter_space(), options, path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
    EXPECT_TRUE(std::filesystem::exists(path_));
  }
  auto healthy = counter_sim();
  TuningSession session(counter_space(), options, path_);
  const TuningRun resumed = session.run(*healthy);

  ASSERT_EQ(resumed.results.size(), reference.results.size());
  EXPECT_EQ(resumed.best_config(), reference.best_config());
  EXPECT_EQ(resumed.best_value(), reference.best_value());  // bit-equal
  EXPECT_EQ(resumed.total_invocations, reference.total_invocations);
  EXPECT_EQ(resumed.total_iterations, reference.total_iterations);
  for (std::size_t i = 0; i < resumed.results.size(); ++i) {
    EXPECT_EQ(resumed.results[i].config, reference.results[i].config) << i;
    EXPECT_EQ(resumed.results[i].value(), reference.results[i].value()) << i;
    EXPECT_EQ(resumed.results[i].outer_stop, reference.results[i].outer_stop) << i;
    EXPECT_EQ(resumed.results[i].invocations.size(),
              reference.results[i].invocations.size())
        << i;
  }
}

// --- real kills ----------------------------------------------------------

/// The CLI's c+i+o technique at a test-sized budget, under `strategy`.
TunerOptions kill_options(SearchStrategy strategy) {
  TunerOptions o = technique_options(Technique::CIOuter);
  o.invocations = 3;
  o.iterations = 25;
  o.strategy = strategy;
  o.surrogate_seed_budget = 12;
  o.surrogate_confirm_top = 6;
  return o;
}

/// What a kill test runs: the space, the tuner options and the simulated
/// gold6148 DGEMM backend's options.
struct KillRun {
  SearchSpace space = counter_space();
  TunerOptions options;
  simhw::SimOptions sim = counter_sim_options();
};

/// The `--json` report and the `--export` document of a run.
std::string artifacts(const TuningRun& run, const KillRun& kr) {
  const std::string metric = counter_sim()->metric_name();
  return to_json(run, "dgemm", metric) + "\n" +
         trace::write_export(trace::make_export(run, kr.space, "dgemm", metric,
                                                kr.options, std::nullopt));
}

std::size_t line_count(const std::string& path) {
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

/// Run a session in a forked child, SIGKILL it once its log holds a header
/// and `kill_after` invocations (the child blocks in the next invocation),
/// optionally tear the last line as a kill mid-append would, then resume
/// here.  The report and export must be byte-identical to an uninterrupted
/// run's.
void expect_kill_resume_identical(const std::string& path, const KillRun& kr,
                                  std::uint64_t kill_after, bool tear_last_line) {
  std::filesystem::remove(path);
  auto reference_backend = counter_sim(kr.sim);
  const TuningRun reference = Autotuner(kr.space, kr.options).run(*reference_backend);
  ASSERT_GT(reference.total_invocations, kill_after);

  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    DyingSimBackend parked(kill_after, /*park=*/true, kr.sim);
    TuningSession session(kr.space, kr.options, path);
    static_cast<void>(session.run(parked));
    ::_exit(1);  // unreachable: the run parks before it can finish
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (line_count(path) < kill_after + 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ::kill(child, SIGKILL);
  int status = 0;
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  ASSERT_EQ(line_count(path), kill_after + 1);

  if (tear_last_line) {
    // Half of the last record survives, without its newline: the resume
    // drops it and measures that invocation again.
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size - 40);
    ASSERT_EQ(line_count(path), kill_after);
  }

  auto healthy = counter_sim(kr.sim);
  TuningSession session(kr.space, kr.options, path);
  const TuningRun resumed = session.run(*healthy);
  EXPECT_GT(session.resumed_configs(), 0u);
  EXPECT_FALSE(std::filesystem::exists(path));
  // Grid-sized artifacts run to megabytes: show where they part, not both.
  const std::string got = artifacts(resumed, kr);
  const std::string want = artifacts(reference, kr);
  const auto at = static_cast<std::size_t>(
      std::mismatch(got.begin(), got.end(), want.begin(), want.end()).first -
      got.begin());
  const std::size_t from = at < 200 ? 0 : at - 200;
  EXPECT_TRUE(got == want) << "artifacts differ at byte " << at << "\nresumed:   "
                           << got.substr(from, 400) << "\nreference: "
                           << want.substr(from, 400);
}

void expect_kills_resume_identical(const std::string& path, const KillRun& kr) {
  auto backend = counter_sim(kr.sim);
  const std::uint64_t total =
      Autotuner(kr.space, kr.options).run(*backend).total_invocations;
  expect_kill_resume_identical(path, kr, total / 3, false);
  expect_kill_resume_identical(path, kr, 2 * total / 3, true);
}

TEST_F(SessionTest, SigkilledExhaustiveRunResumesIdentically) {
  expect_kills_resume_identical(path_,
                                {.options = kill_options(SearchStrategy::Exhaustive)});
}

TEST_F(SessionTest, SigkilledRacingRunResumesIdentically) {
  expect_kills_resume_identical(path_,
                                {.options = kill_options(SearchStrategy::Racing)});
}

TEST_F(SessionTest, SigkilledCounterPruneRacingRunResumesIdentically) {
  TunerOptions options = counter_racing_options();
  options.order = SearchOrder::Reverse;
  expect_kills_resume_identical(path_, {.options = options});
}

TEST_F(SessionTest, SigkilledSurrogateRunResumesIdentically) {
  expect_kills_resume_identical(path_,
                                {.options = kill_options(SearchStrategy::Surrogate)});
}

// `rooftune dgemm --machine gold6148 --grid-scale 4 --arena on
// --setup-overhead 0.001 --checkpoint F`: the simulated arena's slab
// high-water mark depends on every lease so far, so replayed invocations
// must lease too, or the resumed run pays slab misses the uninterrupted run
// did not and reports only the live part's arena counters.
TEST_F(SessionTest, SigkilledArenaRunResumesIdentically) {
  simhw::SimOptions sim;
  sim.seed = 2021;
  sim.grid_scale = 4;
  sim.arena_reuse = true;
  sim.setup_overhead_s = 0.001;
  expect_kills_resume_identical(path_, {.space = dgemm_scaled_space(4),
                                        .options = technique_options(Technique::CIOuter),
                                        .sim = sim});
}

TEST_F(SessionTest, RefusesAnOlderCheckpointFormat) {
  // The single-document checkpoint earlier releases wrote.
  std::ofstream(path_) << R"({"fingerprint":"00ffee0011223344","trace":null,"env":null,)"
                          R"("elapsed_seconds":1.5,"incumbent":20,"best_index":1,"results":[]})";
  FakeBackend backend;
  program(backend);
  TuningSession session(small_space(), quick(), path_);
  try {
    static_cast<void>(session.run(backend));
    FAIL() << "expected the old format to be refused";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("delete it"), std::string::npos) << what;
  }
  EXPECT_EQ(backend.invocations_started(), 0u);
  EXPECT_TRUE(std::filesystem::exists(path_));  // never overwritten
}

TEST_F(SessionTest, RefusesARecordForAnotherInvocation) {
  {
    DyingBackend dying(3);
    program(dying);
    TuningSession session(small_space(), quick(), path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
  }
  // Swap the second and third records: the log no longer matches the walk.
  std::string text;
  {
    std::ifstream in(path_);
    text.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::vector<std::string> lines;
  for (std::size_t begin = 0; begin < text.size();) {
    const std::size_t end = text.find('\n', begin);
    lines.push_back(text.substr(begin, end + 1 - begin));
    begin = end + 1;
  }
  ASSERT_EQ(lines.size(), 4u);
  std::swap(lines[2], lines[3]);
  {
    std::ofstream out(path_, std::ios::trunc);
    for (const auto& line : lines) out << line;
  }
  FakeBackend backend;
  program(backend);
  TuningSession session(small_space(), quick(), path_);
  try {
    static_cast<void>(session.run(backend));
    FAIL() << "expected the mismatched record to be refused";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
  }
}

TEST_F(SessionTest, RejectsResumeUnderDifferentEnvironment) {
  auto options = quick();
  options.env_fingerprint = 0x1234u;
  {
    DyingBackend dying(3);
    program(dying);
    TuningSession session(small_space(), options, path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
  }
  // Identical search, different machine environment: refused with a message
  // naming the fingerprints — not the generic foreign-checkpoint error.
  options.env_fingerprint = 0x5678u;
  {
    TuningSession session(small_space(), options, path_);
    FakeBackend backend;
    program(backend);
    try {
      static_cast<void>(session.run(backend));
      FAIL() << "expected environment mismatch";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("environment"), std::string::npos)
          << e.what();
    }
  }
  // Re-established original environment: resume completes.
  options.env_fingerprint = 0x1234u;
  FakeBackend healthy;
  program(healthy);
  TuningSession session(small_space(), options, path_);
  EXPECT_EQ(session.run(healthy).results.size(), 4u);
}

TEST_F(SessionTest, ZeroEnvFingerprintSkipsTheEnvironmentCheck) {
  auto options = quick();
  options.env_fingerprint = 0x1234u;
  {
    DyingBackend dying(3);
    program(dying);
    TuningSession session(small_space(), options, path_);
    EXPECT_THROW(static_cast<void>(session.run(dying)), std::runtime_error);
  }
  // An embedder without telemetry resumes checkpoints from stamped runs.
  options.env_fingerprint = 0;
  FakeBackend healthy;
  program(healthy);
  TuningSession session(small_space(), options, path_);
  EXPECT_EQ(session.run(healthy).results.size(), 4u);
}

}  // namespace
}  // namespace rooftune::core

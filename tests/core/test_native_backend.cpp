#include "core/native_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/evaluator.hpp"

namespace rooftune::core {
namespace {

TEST(NativeDgemmBackend, ProducesPlausibleSamples) {
  NativeDgemmBackend backend;
  backend.begin_invocation(dgemm_config(64, 64, 32), 0);
  for (int i = 0; i < 3; ++i) {
    const Sample s = backend.run_iteration();
    EXPECT_GT(s.value, 0.0);          // some GFLOP/s
    EXPECT_LT(s.value, 1e5);          // but not absurd
    EXPECT_GT(s.kernel_time.value, 0.0);
  }
  backend.end_invocation();
}

TEST(NativeDgemmBackend, MetricAndClock) {
  NativeDgemmBackend backend;
  EXPECT_EQ(backend.metric_name(), "GFLOP/s");
  const auto t0 = backend.clock().now();
  backend.begin_invocation(dgemm_config(32, 32, 32), 0);
  backend.run_iteration();
  backend.end_invocation();
  EXPECT_GT((backend.clock().now() - t0).value, 0.0);
}

TEST(NativeDgemmBackend, RejectsBadDimensions) {
  NativeDgemmBackend backend;
  EXPECT_THROW(backend.begin_invocation(dgemm_config(0, 10, 10), 0),
               std::invalid_argument);
}

TEST(NativeDgemmBackend, IterationOutsideInvocationThrows) {
  NativeDgemmBackend backend;
  EXPECT_THROW(backend.run_iteration(), std::logic_error);
}

TEST(NativeDgemmBackend, WorksWithEvaluator) {
  NativeDgemmBackend backend;
  TunerOptions options;
  options.invocations = 2;
  options.iterations = 3;
  options.timeout = util::Seconds{5.0};
  const auto result = run_configuration(backend, dgemm_config(48, 48, 48), options, {});
  EXPECT_EQ(result.invocations.size(), 2u);
  EXPECT_GT(result.value(), 0.0);
}

TEST(NativeDgemmBackend, BetaDoesNotCompoundAcrossIterations) {
  // Regression: with beta != 0 each timed call used to accumulate into the
  // C produced by the previous call — over a 200-iteration inner loop the
  // entries grew geometrically (|C| ~ beta^i) until they overflowed, so the
  // later "iterations" timed denormal/infinity arithmetic instead of the
  // benchmark.  C is now re-zeroed outside the timed region.
  NativeDgemmBackend::Options options;
  options.beta = 2.0;
  NativeDgemmBackend backend(options);
  backend.begin_invocation(dgemm_config(32, 32, 32), 0);
  for (int i = 0; i < 40; ++i) {
    const Sample s = backend.run_iteration();
    EXPECT_GT(s.value, 0.0);
  }
  // Every iteration computes C = alpha*A*B with |A|,|B| <= 1, so
  // |C| <= k = 32.  Compounding would have reached ~2^40 by now.
  EXPECT_LE(backend.max_abs_c(), 32.0);
  backend.end_invocation();
}

TEST(NativeDgemmBackend, ArenaReusesSlabAcrossInvocationsAndConfigs) {
  NativeDgemmBackend backend;
  const auto run_one = [&](std::int64_t n, std::uint64_t invocation) {
    backend.begin_invocation(dgemm_config(n, n, n), invocation);
    backend.run_iteration();
    backend.end_invocation();
  };

  run_one(64, 0);  // high-water working set: 3 slab misses
  const auto warm = *backend.arena_stats();
  EXPECT_EQ(warm.slab_misses, 3u);
  EXPECT_EQ(warm.allocations, 3u);

  // Steady state: repeated and *smaller* configurations perform zero new
  // allocations — every lease is a slab hit.
  run_one(64, 1);
  run_one(32, 0);
  run_one(48, 0);
  const auto steady = *backend.arena_stats();
  EXPECT_EQ(steady.allocations, warm.allocations);
  EXPECT_EQ(steady.slab_misses, warm.slab_misses);
  EXPECT_EQ(steady.slab_hits, warm.slab_hits + 9u);
}

TEST(NativeDgemmBackend, ReuseOffReallocatesEveryInvocation) {
  NativeDgemmBackend::Options options;
  options.reuse = false;  // the paper's allocate/free-per-invocation baseline
  NativeDgemmBackend backend(options);
  for (std::uint64_t inv = 0; inv < 3; ++inv) {
    backend.begin_invocation(dgemm_config(32, 32, 32), inv);
    backend.run_iteration();
    backend.end_invocation();
  }
  const auto stats = *backend.arena_stats();
  EXPECT_EQ(stats.slab_misses, 9u);
  EXPECT_EQ(stats.slab_hits, 0u);
  EXPECT_EQ(stats.allocations, 9u);
  EXPECT_EQ(stats.bytes_reserved, 0u);  // released after the last invocation
}

TEST(NativeDgemmBackend, SharedArenaServesBothOperandsSets) {
  auto arena = std::make_shared<util::WorkspaceArena>();
  NativeDgemmBackend::Options options;
  options.arena = arena;
  NativeDgemmBackend backend(options);
  backend.begin_invocation(dgemm_config(16, 16, 16), 0);
  backend.run_iteration();
  backend.end_invocation();
  EXPECT_EQ(arena->stats().leases, 3u);
  EXPECT_EQ(backend.arena_stats()->leases, 3u);
}

// One 16384-element OpenMP pass takes microseconds, so a single scheduling
// hiccup on a loaded host can push it past a bound: the bound holds for the
// median of several passes after an untimed warm-up.
TEST(NativeTriadBackend, ProducesPlausibleBandwidth) {
  NativeTriadBackend backend;
  backend.begin_invocation(triad_config(1 << 14), 0);
  (void)backend.run_iteration();  // warm-up: thread team start, first touch
  std::vector<double> gbps;
  for (int i = 0; i < 9; ++i) gbps.push_back(backend.run_iteration().value);
  backend.end_invocation();
  std::nth_element(gbps.begin(), gbps.begin() + 4, gbps.end());
  EXPECT_GT(gbps[4], 0.01);  // GB/s
  EXPECT_LT(gbps[4], 1e4);
}

TEST(NativeTriadBackend, MetricName) {
  NativeTriadBackend backend;
  EXPECT_EQ(backend.metric_name(), "GB/s");
}

TEST(NativeTriadBackend, IterationOutsideInvocationThrows) {
  NativeTriadBackend backend;
  EXPECT_THROW(backend.run_iteration(), std::logic_error);
}

TEST(NativeTriadBackend, ArenaSteadyStateIsAllocationFree) {
  NativeTriadBackend backend;
  const auto run_one = [&](std::int64_t n, std::uint64_t invocation) {
    backend.begin_invocation(triad_config(n), invocation);
    backend.run_iteration();
    backend.end_invocation();
  };
  run_one(1 << 14, 0);
  const auto warm = *backend.arena_stats();
  EXPECT_EQ(warm.slab_misses, 3u);  // stream.a/b/c
  for (std::uint64_t inv = 1; inv <= 4; ++inv) run_one(1 << 14, inv);
  run_one(1 << 12, 0);
  const auto steady = *backend.arena_stats();
  EXPECT_EQ(steady.allocations, warm.allocations);
  EXPECT_EQ(steady.slab_misses, warm.slab_misses);
  EXPECT_EQ(steady.slab_hits, warm.slab_hits + 15u);
}

}  // namespace
}  // namespace rooftune::core

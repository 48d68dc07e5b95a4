#pragma once
// Every metric the suite emits, with its unit and direction.  Untraced runs
// emit the end-to-end set; traced runs emit the per-layer set.  BENCHMARK.json
// lists the same names (tests/test_metric_names.cpp keeps them in sync).

#include <string>
#include <vector>

namespace rooftune::suite {

struct MetricDef {
  const char* name;
  const char* unit;
  bool higher_is_better;
  /// Per-layer metrics only: "pass" values come from the workload's own
  /// traced pass (0 when the workload does not run that layer); "probe"
  /// values come from the layer probes every traced run executes
  /// (probes.hpp), so they are measured the same way on every workload.
  const char* source;
};

inline const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"host_s", "s", false, ""},
      {"setup_s", "s", false, ""},
      {"peak_rss_mib", "MiB", false, ""},
      {"search_time_s", "s", false, ""},
      {"invocations", "count", false, ""},
      {"iterations", "count", false, ""},
      {"invocations_to_optimum", "count", false, ""},
      {"optimum_share", "share", true, ""},
  };
  return defs;
}

inline const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // Whole-pass accounting of the traced pass.
      {"bench.span_coverage", "share", true, "pass"},
      {"bench.trace_overhead", "share", false, "pass"},
      // Self time of each layer's spans, as a share of all span self time.
      {"simhw.self_share", "share", false, "pass"},
      {"evaluator.self_share", "share", false, "pass"},
      {"parallel_evaluator.self_share", "share", false, "pass"},
      {"journal.self_share", "share", false, "pass"},
      {"export.self_share", "share", false, "pass"},
      {"profile_export.self_share", "share", false, "pass"},
      {"telemetry.self_share", "share", false, "pass"},
      {"reader.self_share", "share", false, "pass"},
      {"analyze.self_share", "share", false, "pass"},
      {"io.self_share", "share", false, "pass"},
      // Layer counters of the traced pass.
      {"racing.eliminated_share", "share", true, "pass"},
      {"racing.invocations_per_config", "count", false, "pass"},
      {"bottleneck.skipped_configs", "count", true, "pass"},
      {"eval_pool.idle_fraction", "share", false, "pass"},
      {"eval_pool.steals_per_task", "count", false, "pass"},
      {"parallel_evaluator.backend_busy_fraction", "share", true, "pass"},
      // Layer probes.
      {"blas.dgemm_gflops_2048", "GFLOP/s", true, "probe"},
      {"blas.plan_gflops_scalar", "GFLOP/s", true, "probe"},
      {"blas.plan_gflops_avx2", "GFLOP/s", true, "probe"},
      {"blas.plan_gflops_avx512", "GFLOP/s", true, "probe"},
      {"stream.triad_gbps_l1", "GB/s", true, "probe"},
      {"stream.triad_gbps_l2", "GB/s", true, "probe"},
      {"stream.triad_gbps_l3", "GB/s", true, "probe"},
      {"stream.triad_gbps_dram", "GB/s", true, "probe"},
      {"stream.triad_gbps_dram_nt", "GB/s", true, "probe"},
      {"stream.init_gbps_dram", "GB/s", true, "probe"},
      {"blas.roofline_fraction_median", "share", true, "probe"},
      {"workspace_arena.hit_rate", "share", true, "probe"},
      {"workspace_arena.reserved_mib", "MiB", false, "probe"},
      {"native_backend.invocation_setup_ms", "ms", false, "probe"},
      {"simhw.iteration_ns", "ns", false, "probe"},
      {"simhw.begin_invocation_ns", "ns", false, "probe"},
      {"evaluator.overhead_ns_per_iteration", "ns", false, "probe"},
      {"evaluator.mock_ns_per_invocation", "ns", false, "probe"},
      {"stats.welford_push_ns", "ns", false, "probe"},
      {"stats.t_critical_ns", "ns", false, "probe"},
      {"search_space.config_at_ns", "ns", false, "probe"},
      {"search_space.lhs_ms", "ms", false, "probe"},
      {"surrogate.fit_ms", "ms", false, "probe"},
      {"surrogate.predict_ns", "ns", false, "probe"},
      {"surrogate.train_r2", "r2", true, "probe"},
      {"eval_pool.task_roundtrip_ns", "ns", false, "probe"},
      {"parallel_evaluator.commit_wait_ns_per_task", "ns", false, "probe"},
      {"parallel_evaluator.speedup_vs_1_worker", "x", true, "probe"},
      {"journal.emit_ns_per_record", "ns", false, "probe"},
      {"journal.bytes_per_record", "B", false, "probe"},
      {"journal.flush_ms", "ms", false, "probe"},
      {"export.write_mb_s", "MB/s", true, "probe"},
      {"export.parse_mb_s", "MB/s", true, "probe"},
      {"export.replay_ms", "ms", false, "probe"},
      {"export.from_journal_ms", "ms", false, "probe"},
      {"reader.read_mb_s", "MB/s", true, "probe"},
      {"analyze.report_ms", "ms", false, "probe"},
      {"profiler.overhead_fraction", "share", false, "probe"},
      {"profile_export.write_ms", "ms", false, "probe"},
      {"profile_export.parse_ms", "ms", false, "probe"},
      {"json_parse.parse_mb_s", "MB/s", true, "probe"},
  };
  return defs;
}

}  // namespace rooftune::suite

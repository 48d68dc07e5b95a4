#include "harness/run_loop.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <vector>

#include "harness/metrics.hpp"
#include "harness/probes.hpp"
#include "harness/workload.hpp"
#include "util/json.hpp"

namespace rooftune::suite {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Attempted/failed verification counts; every failure keeps its message.
struct Tally {
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void add(const Check& c) {
    ++attempted;
    if (!c.ok) failures.push_back(c.name + (c.detail.empty() ? "" : ": " + c.detail));
  }
  void add_all(const std::vector<Check>& checks) {
    for (const auto& c : checks) add(c);
  }
};

/// One named sample series, reported as its median.  The result file also
/// holds the highest percentile with at least ten samples beyond it.
struct Series {
  std::vector<double> values;

  void write(util::JsonWriter& json, const char* unit) const {
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    json.begin_object();
    json.key("value").value_exact(median(values));
    json.key("unit").value(unit);
    json.key("n").value(n);
    if (n >= 11) {
      json.key("p_hi").value_exact(sorted[n - 11]);
      json.key("p_hi_pct").value_exact(100.0 * static_cast<double>(n - 10) /
                                       static_cast<double>(n));
    } else {
      json.key("p_hi").null();
      json.key("p_hi_pct").null();
    }
    json.key("repeat").value(n > 0 && sorted.front() == sorted.back());
    json.key("samples").begin_array();
    for (const double v : values) json.value_exact(v);
    json.end_array();
    json.end_object();
  }
};

/// Per-layer metrics of one traced pass that come from its spans.
std::map<std::string, double> span_metrics(const Tracer& tracer, double coverage) {
  std::map<std::string, double> out;
  out["bench.span_coverage"] = coverage;
  std::map<std::string, double> layer_self;
  double total_self = 0.0;
  for (const auto& [name, agg] : tracer.aggregates()) {
    const std::string layer = name.substr(0, name.find('.'));
    layer_self[layer] += static_cast<double>(agg.self_ns);
    total_self += static_cast<double>(agg.self_ns);
  }
  for (const auto& def : per_layer_metrics()) {
    const std::string name = def.name;
    const std::string suffix = ".self_share";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
      continue;
    }
    const std::string layer = name.substr(0, name.size() - suffix.size());
    const auto it = layer_self.find(layer);
    out[name] = total_self > 0.0 && it != layer_self.end()
                    ? it->second / total_self
                    : 0.0;
  }
  return out;
}

struct PassRecord {
  PassOutcome outcome;
  double host_s = 0.0;
};

class Runner {
 public:
  Runner(const RunOptions& options, const WorkloadSpec& spec)
      : options_(options), spec_(spec) {}

  std::string run(const WorkloadFactory& factory) {
    RunContext ctx;
    ctx.seed = options_.seed;
    ctx.workdir = options_.workdir;
    ctx.host = host_;
    std::filesystem::create_directories(ctx.workdir);

    try {
      std::unique_ptr<Workload> workload;
      set_up(workload, factory, ctx);
      workload->warm_up();
      if (options_.trace) {
        run_traced(*workload);
      } else {
        run_untraced(workload, factory, ctx);
      }
      tally_.add_all(workload->verify());
      workload.reset();  // the probes allocate their own working sets
      if (options_.trace) {
        std::vector<Check> probe_checks;
        probes_ = run_probes(ctx, probe_checks);
        tally_.add_all(probe_checks);
      }
      tally_.add(check("run completed", true));
    } catch (const std::exception& e) {
      tally_.add(check("run completed", false, e.what()));
    }
    return document();
  }

 private:
  /// One timed set-up, replacing `workload`.
  void set_up(std::unique_ptr<Workload>& workload, const WorkloadFactory& factory,
              const RunContext& ctx) {
    workload.reset();  // free the previous set-up before building the next
    const auto start = std::chrono::steady_clock::now();
    workload = factory(ctx);
    setup_.values.push_back(seconds_since(start));
  }

  /// One pass; a pass that throws ends the run as a failed "run completed".
  PassRecord timed_pass(Workload& workload, Tracer* tracer) {
    PassRecord record;
    const auto start = std::chrono::steady_clock::now();
    record.outcome = workload.pass(tracer);
    record.host_s = seconds_since(start);
    tally_.add_all(record.outcome.checks);
    return record;
  }

  void check_exact(const PassRecord& record, const char* what) {
    if (untraced_.empty()) return;
    const auto& reference = untraced_.front().outcome.exact;
    const auto& got = record.outcome.exact;
    std::string mismatch;
    if (reference.size() != got.size()) {
      mismatch = "field count " + std::to_string(got.size()) + " vs " +
                 std::to_string(reference.size());
    }
    for (std::size_t i = 0; mismatch.empty() && i < reference.size(); ++i) {
      if (reference[i] != got[i]) {
        mismatch = got[i].first + "=" + got[i].second + " vs " +
                   reference[i].first + "=" + reference[i].second;
      }
    }
    tally_.add(check(std::string(what) + " exact fields equal pass 1",
                     mismatch.empty(), mismatch));
  }

  double speed_probe() {
    speed_.values.push_back(speed_probe_s());
    return speed_.values.back();
  }

  /// The set-ups after the first are spread evenly between the passes, so
  /// that set-up and passes sample the same stretches of host time: set-up
  /// j runs before pass floor(j * passes / setups).  Every pass runs
  /// between two speed probes (WorkloadSpec::scaled).
  void run_untraced(std::unique_ptr<Workload>& workload, const WorkloadFactory& factory,
                    const RunContext& ctx) {
    const int passes = spec_.passes(options_.seconds);
    int setups = 1;
    for (int i = 0; i < passes; ++i) {
      for (; setups < spec_.setups && setups * passes < spec_.setups * (i + 1); ++setups) {
        set_up(workload, factory, ctx);
      }
      const double before = speed_probe();
      PassRecord record = timed_pass(*workload, nullptr);
      const double after = speed_probe();
      double host_s = record.host_s;
      if (spec_.scaled) host_s *= kSpeedProbeReferenceS / (0.5 * (before + after));
      check_exact(record, "pass");
      host_wall_.values.push_back(record.host_s);
      host_s_.values.push_back(host_s);
      untraced_.push_back(std::move(record));
    }
  }

  /// Alternate untraced and traced passes; the untraced ones anchor the
  /// trace overhead and the exact-field comparison.
  void run_traced(Workload& workload) {
    const int pairs = std::max(1, spec_.passes(options_.seconds) / 2);
    for (int i = 0; i < pairs; ++i) {
      PassRecord plain = timed_pass(workload, nullptr);
      check_exact(plain, "pass");
      untraced_.push_back(std::move(plain));

      Tracer tracer;
      tracer.set_thread_name("main");
      const std::uint64_t covered_before = tracer.top_level_ns();
      PassRecord traced = timed_pass(workload, &tracer);
      const double covered_s =
          static_cast<double>(tracer.top_level_ns() - covered_before) * 1e-9;
      check_exact(traced, "traced pass");

      std::map<std::string, double> layer = span_metrics(
          tracer, traced.host_s > 0.0 ? covered_s / traced.host_s : 0.0);
      layer["bench.trace_overhead"] =
          traced.host_s / untraced_.back().host_s - 1.0;
      for (const auto& [name, value] : traced.outcome.layer) layer[name] = value;
      for (const auto& [name, value] : layer) layer_[name].values.push_back(value);

      if (i == 0 && !options_.spans_path.empty()) {
        std::ofstream(options_.spans_path) << tracer.chrome_json();
        spans_dropped_ = tracer.dropped();
      }
    }
  }

  std::string document() const {
    util::JsonWriter json;
    json.begin_object();
    json.key("workload").value(options_.workload);
    json.key("seed").value(static_cast<unsigned long long>(options_.seed));
    json.key("trace").value(options_.trace);
    json.key("seconds").value_exact(options_.seconds);
    json.key("passes").value(untraced_.size());

    json.key("host").begin_object();
    json.key("nproc").value(static_cast<unsigned long long>(host_.nproc));
    json.key("l1d_bytes").value(static_cast<unsigned long long>(host_.l1d_bytes));
    json.key("l2_bytes").value(static_cast<unsigned long long>(host_.l2_bytes));
    json.key("llc_level").value(host_.llc_level);
    json.key("llc_bytes").value(static_cast<unsigned long long>(host_.llc_bytes));
    json.key("llc_count").value(static_cast<unsigned long long>(host_.llc_count));
    json.end_object();

    json.key("correct").value(tally_.failures.empty());
    json.key("attempted").value(static_cast<unsigned long long>(tally_.attempted));
    json.key("failed").value(tally_.failures.size());
    json.key("failures").begin_array();
    for (const auto& f : tally_.failures) json.value(f);
    json.end_array();

    json.key("metrics").begin_object();
    if (options_.trace) {
      for (const auto& def : per_layer_metrics()) {
        Series series;
        if (def.source == std::string("probe")) {
          const auto it = probes_.find(def.name);
          series.values.push_back(it == probes_.end() ? 0.0 : it->second);
        } else {
          const auto it = layer_.find(def.name);
          series = it == layer_.end() ? Series{{0.0}} : it->second;
        }
        json.key(def.name);
        series.write(json, def.unit);
      }
    } else {
      Series search, invocations, iterations, to_optimum, share, rss;
      for (const auto& p : untraced_) {
        search.values.push_back(p.outcome.search_time_s);
        invocations.values.push_back(static_cast<double>(p.outcome.invocations));
        iterations.values.push_back(static_cast<double>(p.outcome.iterations));
        to_optimum.values.push_back(static_cast<double>(p.outcome.invocations_to_optimum));
        share.values.push_back(p.outcome.optimum_share);
      }
      rss.values.push_back(peak_rss_mib());
      Series setup = setup_;
      if (!speed_.values.empty()) {
        const double scale = kSpeedProbeReferenceS / median(speed_.values);
        for (double& v : setup.values) v *= scale;
      }
      const std::map<std::string, const Series*> series = {
          {"host_s", &host_s_},
          {"setup_s", &setup},
          {"peak_rss_mib", &rss},
          {"search_time_s", &search},
          {"invocations", &invocations},
          {"iterations", &iterations},
          {"invocations_to_optimum", &to_optimum},
          {"optimum_share", &share}};
      for (const auto& def : end_to_end_metrics()) {
        json.key(def.name);
        series.at(def.name)->write(json, def.unit);
      }
    }
    json.end_object();

    // Workload-specific measurements (medians over untraced passes), the
    // unscaled host-clock times, and the first pass's deterministic fields.
    json.key("details").begin_object();
    std::map<std::string, std::vector<double>> details;
    for (const auto& p : untraced_) {
      for (const auto& [name, value] : p.outcome.details) details[name].push_back(value);
    }
    if (!options_.trace) {
      details["host_wall_s"] = host_wall_.values;
      details["setup_wall_s"] = setup_.values;
      details["speed_probe_s"] = speed_.values;
    }
    for (const auto& [name, values] : details) json.key(name).value_exact(median(values));
    json.end_object();
    json.key("exact").begin_object();
    if (!untraced_.empty()) {
      for (const auto& [name, value] : untraced_.front().outcome.exact) {
        json.key(name).value(value);
      }
    }
    json.end_object();
    if (options_.trace) {
      json.key("spans").begin_object();
      json.key("file").value(options_.spans_path);
      json.key("dropped").value(static_cast<unsigned long long>(spans_dropped_));
      json.end_object();
    }
    json.end_object();
    return json.str();
  }

  const RunOptions& options_;
  const WorkloadSpec& spec_;
  const HostFacts host_ = read_host_facts();
  Tally tally_;
  Series setup_;
  /// Untraced passes' host seconds, as reported (scaled) and as measured.
  Series host_s_;
  Series host_wall_;
  /// Every speed probe of the untraced passes.
  Series speed_;
  std::vector<PassRecord> untraced_;
  std::map<std::string, Series> layer_;
  std::map<std::string, double> probes_;
  std::uint64_t spans_dropped_ = 0;
};

}  // namespace

std::string exact_text(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

double search_time(const core::TuningRun& run) {
  double total = 0.0;
  for (const auto& result : run.results) {
    for (const auto& invocation : result.invocations) total += invocation.wall_time.value;
  }
  return total;
}

std::uint64_t invocations_to_optimum(const core::TuningRun& run) {
  std::uint64_t spent = 0;
  for (std::size_t i = 0; i < run.results.size(); ++i) {
    spent += run.results[i].invocations.size();
    if (run.best_index == i) return spent;
  }
  return spent;
}

void record_run(PassOutcome& out, const std::string& key, const core::TuningRun& run) {
  const double time_s = search_time(run);
  const std::uint64_t to_optimum = invocations_to_optimum(run);
  out.search_time_s += time_s;
  out.invocations += run.total_invocations;
  out.iterations += run.total_iterations;
  out.invocations_to_optimum += to_optimum;
  out.exact.emplace_back(key + ".best", run.best_config().to_string() + " = " +
                                            exact_text(run.best_value()));
  out.exact.emplace_back(key + ".time_s", exact_text(time_s));
  out.exact.emplace_back(key + ".invocations", std::to_string(run.total_invocations));
  out.exact.emplace_back(key + ".iterations", std::to_string(run.total_iterations));
  out.exact.emplace_back(key + ".invocations_to_optimum", std::to_string(to_optimum));
}

Check check(std::string name, bool ok, std::string detail) {
  return Check{std::move(name), ok, ok ? std::string() : std::move(detail)};
}

int WorkloadSpec::passes(double seconds) const {
  return std::max(1, static_cast<int>(std::lround(seconds / pass_s)));
}

const std::vector<WorkloadSpec>& workloads() {
  // At BENCHMARK.json's 16 s a run makes 40, 5, 20 and 32 passes, sized by
  // each workload's spread of host_s over ten runs (README.md): the two
  // artifact workloads, whose scaled passes vary most, make the most.  The
  // set-up counts keep each run's set-up phase near a second or two:
  // artifact-readback writes a grid6-artifacts pass per set-up and
  // grid6-pipeline runs its one-worker reference, while paper-tables and
  // grid6-artifacts set up in microseconds and need many samples for a
  // steady median.
  static const std::vector<WorkloadSpec> table = {
      {"paper-tables", make_paper_tables, 0.4, 1000, true},
      {"grid6-pipeline", make_grid6_pipeline, 3.0, 15, false},
      {"grid6-artifacts", make_grid6_artifacts, 0.8, 1000, true},
      {"artifact-readback", make_artifact_readback, 0.5, 5, true},
  };
  return table;
}

const WorkloadSpec& workload_spec(const std::string& name) {
  for (const auto& spec : workloads()) {
    if (name == spec.name) return spec;
  }
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::string run_workload(const RunOptions& options) {
  return run_workload(options, workload_spec(options.workload).make);
}

std::string run_workload(const RunOptions& options, const WorkloadFactory& factory) {
  return Runner(options, workload_spec(options.workload)).run(factory);
}

}  // namespace rooftune::suite

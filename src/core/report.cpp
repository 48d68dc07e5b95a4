#include "core/report.hpp"

#include <ostream>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace rooftune::core {

std::string to_json(const TuningRun& run, const std::string& benchmark_name,
                    const std::string& metric_name) {
  util::JsonWriter w;
  w.begin_object();
  w.key("benchmark").value(benchmark_name);
  w.key("metric").value(metric_name);
  w.key("total_time_seconds").value(run.total_time.value);
  w.key("total_setup_seconds").value(run.total_setup_time.value);
  w.key("total_kernel_seconds").value(run.total_kernel_time.value);
  w.key("total_iterations").value(run.total_iterations);
  w.key("total_invocations").value(run.total_invocations);
  w.key("pruned_configs").value(run.pruned_configs);

  if (run.arena.has_value()) {
    const util::ArenaStats& a = *run.arena;
    w.key("arena").begin_object();
    w.key("leases").value(a.leases);
    w.key("slab_hits").value(a.slab_hits);
    w.key("slab_misses").value(a.slab_misses);
    w.key("allocations").value(a.allocations);
    w.key("bytes_leased").value(a.bytes_leased);
    w.key("bytes_reserved").value(a.bytes_reserved);
    w.key("pages_touched").value(a.pages_touched);
    w.end_object();
  } else {
    w.key("arena").null();
  }

  if (run.sched.has_value()) {
    const SchedulerStats& s = *run.sched;
    w.key("scheduler").begin_object();
    s.write_fields(w);
    w.key("idle_fraction").value(s.idle_fraction());
    w.end_object();
  } else {
    w.key("scheduler").null();
  }

  if (run.best_index.has_value()) {
    const auto& best = run.best();
    w.key("best").begin_object();
    w.key("configuration").begin_object();
    for (const auto& p : best.config.parameters()) {
      w.key(p.name).value(static_cast<long long>(p.value));
    }
    w.end_object();
    w.key("value").value(best.value());
    w.key("invocations").value(best.invocations.size());
    w.key("iterations").value(best.total_iterations);
    w.end_object();
  } else {
    w.key("best").null();
  }

  w.key("configurations").begin_array();
  for (const auto& r : run.results) {
    w.begin_object();
    w.key("configuration").begin_object();
    for (const auto& p : r.config.parameters()) {
      w.key(p.name).value(static_cast<long long>(p.value));
    }
    w.end_object();
    w.key("value").value(r.value());
    w.key("stddev_across_invocations").value(r.outer_moments.stddev());
    w.key("invocations").value(r.invocations.size());
    w.key("iterations").value(r.total_iterations);
    w.key("time_seconds").value(r.total_time.value);
    w.key("kernel_seconds").value(r.total_kernel_time.value);
    w.key("setup_seconds").value(r.total_setup_time.value);
    w.key("outer_stop").value(to_string(r.outer_stop));
    w.key("pruned").value(r.pruned());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return std::move(w).str();
}

void write_csv(std::ostream& out, const TuningRun& run) {
  util::CsvWriter csv(out);
  std::vector<std::string> header;
  if (!run.results.empty()) {
    for (const auto& p : run.results.front().config.parameters()) header.push_back(p.name);
  }
  header.insert(header.end(), {"value", "stddev", "invocations", "iterations",
                               "time_seconds", "kernel_seconds", "setup_seconds",
                               "outer_stop", "pruned"});
  csv.header(header);
  for (const auto& r : run.results) {
    for (const auto& p : r.config.parameters()) csv.cell(static_cast<long long>(p.value));
    csv.cell(r.value())
        .cell(r.outer_moments.stddev())
        .cell(r.invocations.size())
        .cell(r.total_iterations)
        .cell(r.total_time.value)
        .cell(r.total_kernel_time.value)
        .cell(r.total_setup_time.value)
        .cell(std::string(to_string(r.outer_stop)))
        .cell(std::string(r.pruned() ? "yes" : "no"));
    csv.end_row();
  }
}

std::string summary(const TuningRun& run, const std::string& metric_name) {
  if (!run.best_index.has_value()) return "no configurations evaluated";
  const auto& best = run.best();
  std::string text = util::format(
      "best %s = %.2f %s  (time %s, %llu configs, %llu pruned, %llu iterations)",
      best.config.to_string().c_str(), best.value(), metric_name.c_str(),
      util::format_seconds(run.total_time).c_str(),
      static_cast<unsigned long long>(run.results.size()),
      static_cast<unsigned long long>(run.pruned_configs),
      static_cast<unsigned long long>(run.total_iterations));
  if (run.total_setup_time.value > 0.0) {
    const double share =
        run.total_time.value > 0.0
            ? 100.0 * run.total_setup_time.value / run.total_time.value
            : 0.0;
    text += util::format("\nsetup %s (%.1f%% of total), kernel %s",
                         util::format_seconds(run.total_setup_time).c_str(), share,
                         util::format_seconds(run.total_kernel_time).c_str());
  }
  if (run.arena.has_value()) {
    const util::ArenaStats& a = *run.arena;
    text += util::format(
        "\narena: %llu leases, %llu slab hits, %llu misses, %llu allocations, "
        "%.1f MiB reserved",
        static_cast<unsigned long long>(a.leases),
        static_cast<unsigned long long>(a.slab_hits),
        static_cast<unsigned long long>(a.slab_misses),
        static_cast<unsigned long long>(a.allocations),
        static_cast<double>(a.bytes_reserved) / (1024.0 * 1024.0));
  }
  if (run.sched.has_value()) {
    const SchedulerStats& s = *run.sched;
    text += util::format(
        "\nscheduler: %s, %llu workers, lookahead %llu — %llu tasks, "
        "%llu steals, %llu parks, idle %.1f%%",
        s.mode.c_str(), static_cast<unsigned long long>(s.workers),
        static_cast<unsigned long long>(s.lookahead),
        static_cast<unsigned long long>(s.tasks),
        static_cast<unsigned long long>(s.steals),
        static_cast<unsigned long long>(s.parks),
        100.0 * s.idle_fraction());
  }
  return text;
}

}  // namespace rooftune::core

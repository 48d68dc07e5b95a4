#include "core/sched_stats.hpp"

#include "util/json.hpp"
#include "util/json_parse.hpp"

namespace rooftune::core {

void SchedulerStats::write_fields(util::JsonWriter& w) const {
  w.key("mode").value(mode);
  w.key("workers").value(workers);
  w.key("lookahead").value(lookahead);
  w.key("tasks").value(tasks);
  w.key("steals").value(steals);
  w.key("parks").value(parks);
  w.key("idle_ns").value(idle_ns);
  w.key("busy_ns").value(busy_ns);
  w.key("commit_wait_ns").value(commit_wait_ns);
  w.key("span_ns").value(span_ns);
}

SchedulerStats SchedulerStats::read_fields(const util::JsonValue& object) {
  SchedulerStats stats;
  stats.mode = object.at("mode").as_string();
  stats.workers = object.at("workers").as_u64();
  stats.lookahead = object.at("lookahead").as_u64();
  stats.tasks = object.at("tasks").as_u64();
  stats.steals = object.at("steals").as_u64();
  stats.parks = object.at("parks").as_u64();
  stats.idle_ns = object.at("idle_ns").as_u64();
  stats.busy_ns = object.at("busy_ns").as_u64();
  stats.commit_wait_ns = object.at("commit_wait_ns").as_u64();
  stats.span_ns = object.at("span_ns").as_u64();
  return stats;
}

}  // namespace rooftune::core

#include "trace/profile_export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "util/json.hpp"
#include "util/json_parse.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace rooftune::trace {

namespace {

std::string fmt(const char* format, double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), format, value);
  return buffer;
}

double ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }

std::uint64_t span_duration(const util::ProfileRecord& r) {
  return r.end_ns - r.start_ns;
}

/// Gantt glyph per span category (instants do not draw).
char category_glyph(util::ProfileCategory category) {
  using C = util::ProfileCategory;
  switch (category) {
    case C::TaskExec: return '#';
    case C::PoolIdle: return '.';
    case C::Setup: return 's';
    case C::Kernel: return 'k';
    case C::CommitWait: return 'c';
    case C::RacingRound: return 'r';
    case C::SurrogateSeed: return 'S';
    case C::SurrogateFit: return 'F';
    case C::SurrogateConfirm: return 'C';
    case C::JournalFlush: return 'j';
    case C::Checkpoint: return 'w';
    default: return '?';
  }
}

}  // namespace

std::string write_profile_json(const util::ProfileSnapshot& snapshot,
                               ProfileMetadata meta) {
  meta.overhead_ns_per_record = snapshot.overhead_ns_per_record;
  meta.dropped = snapshot.total_dropped();

  util::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();

  w.begin_object();
  w.key("name").value("process_name");
  w.key("ph").value("M");
  w.key("pid").value(1);
  w.key("tid").value(0);
  w.key("args").begin_object().key("name").value("rooftune").end_object();
  w.end_object();

  for (std::size_t tid = 0; tid < snapshot.lanes.size(); ++tid) {
    w.begin_object();
    w.key("name").value("thread_name");
    w.key("ph").value("M");
    w.key("pid").value(1);
    w.key("tid").value(tid);
    w.key("args").begin_object();
    w.key("name").value(snapshot.lanes[tid].thread_name);
    w.end_object();
    w.end_object();
  }

  for (std::size_t tid = 0; tid < snapshot.lanes.size(); ++tid) {
    for (const util::ProfileRecord& r : snapshot.lanes[tid].records) {
      const bool instant = util::profile_category_is_instant(r.category);
      w.begin_object();
      w.key("name").value(util::to_string(r.category));
      w.key("cat").value(util::to_string(r.category));
      w.key("ph").value(instant ? "i" : "X");
      if (instant) w.key("s").value("t");
      w.key("pid").value(1);
      w.key("tid").value(tid);
      // ts/dur are microseconds (the trace-event format); args carry the
      // exact nanosecond ticks so parsing loses nothing.
      w.key("ts").value(static_cast<double>(r.start_ns) / 1e3);
      if (!instant) {
        w.key("dur").value(static_cast<double>(span_duration(r)) / 1e3);
      }
      w.key("args").begin_object();
      w.key("s_ns").value(r.start_ns);
      if (!instant) w.key("d_ns").value(span_duration(r));
      if (r.arg != 0) w.key("arg").value(r.arg);
      if (r.weight != 0.0) w.key("weight_s").value_exact(r.weight);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();

  w.key("displayTimeUnit").value("ms");

  w.key("metadata").begin_object();
  w.key("tool").value("rooftune");
  w.key("schema_version").value(meta.schema_version);
  if (!meta.benchmark.empty()) w.key("benchmark").value(meta.benchmark);
  if (!meta.strategy.empty()) w.key("strategy").value(meta.strategy);
  if (meta.have_sums) {
    w.key("kernel_s_sum").value_exact(meta.kernel_s_sum);
    w.key("setup_s_sum").value_exact(meta.setup_s_sum);
  }
  if (meta.sched.has_value()) {
    w.key("sched").begin_object();
    meta.sched->write_fields(w);
    w.end_object();
  }
  w.key("overhead_ns_per_record").value_exact(meta.overhead_ns_per_record);
  w.key("dropped").value(meta.dropped);
  // Lane roster (names and per-lane drop counts survive even for lanes
  // whose every record was dropped).
  w.key("lanes").begin_array();
  for (std::size_t tid = 0; tid < snapshot.lanes.size(); ++tid) {
    w.begin_object();
    w.key("tid").value(tid);
    w.key("name").value(snapshot.lanes[tid].thread_name);
    w.key("dropped").value(snapshot.lanes[tid].dropped);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.end_object();
  return std::move(w).str();
}

void write_profile_file(const std::string& path,
                        const util::ProfileSnapshot& snapshot,
                        ProfileMetadata meta) {
  std::string text = write_profile_json(snapshot, std::move(meta));
  text += '\n';
  if (!util::write_text_file(path, text)) {
    throw std::runtime_error("profile: write to '" + path + "' failed");
  }
}

namespace {

/// A record's lane.  Bounded so that a corrupt tid cannot size the lane
/// table: lanes are threads, far fewer than this.
std::size_t lane_index(const util::JsonValue& record) {
  constexpr std::uint64_t kMaxLanes = 1 << 16;
  const std::uint64_t tid = record.at("tid").as_u64();
  if (tid >= kMaxLanes) {
    throw std::runtime_error("profile: tid " + std::to_string(tid) +
                             " is beyond the " + std::to_string(kMaxLanes) +
                             "-lane limit");
  }
  return static_cast<std::size_t>(tid);
}

ProfileDocument read_profile(const util::JsonValue& root) {
  if (!root.has("traceEvents") || !root.has("metadata")) {
    throw std::runtime_error(
        "profile: not a rooftune profile sidecar (missing traceEvents or "
        "metadata)");
  }

  ProfileDocument doc;
  const util::JsonValue meta = root.at("metadata");
  const std::int64_t version = meta.at("schema_version").as_int();
  if (version > kProfileSchemaVersion) {
    throw std::runtime_error(
        "profile: schema version " + std::to_string(version) +
        " is newer than the newest this build reads (" +
        std::to_string(kProfileSchemaVersion) + ") — upgrade rooftune");
  }
  doc.meta.schema_version = static_cast<int>(version);
  if (meta.has("benchmark")) doc.meta.benchmark = meta.at("benchmark").as_string();
  if (meta.has("strategy")) doc.meta.strategy = meta.at("strategy").as_string();
  if (meta.has("kernel_s_sum")) {
    doc.meta.have_sums = true;
    doc.meta.kernel_s_sum = meta.at("kernel_s_sum").as_number();
    doc.meta.setup_s_sum = meta.at("setup_s_sum").as_number();
  }
  if (meta.has("sched")) {
    doc.meta.sched = core::SchedulerStats::read_fields(meta.at("sched"));
  }
  if (meta.has("overhead_ns_per_record")) {
    doc.meta.overhead_ns_per_record =
        meta.at("overhead_ns_per_record").as_number();
  }
  if (meta.has("dropped")) doc.meta.dropped = meta.at("dropped").as_u64();
  doc.snapshot.overhead_ns_per_record = doc.meta.overhead_ns_per_record;

  for (const util::JsonValue& lane : meta.at("lanes").as_array()) {
    const std::size_t tid = lane_index(lane);
    if (tid >= doc.snapshot.lanes.size()) doc.snapshot.lanes.resize(tid + 1);
    doc.snapshot.lanes[tid].thread_name = lane.at("name").as_string();
    doc.snapshot.lanes[tid].dropped = lane.at("dropped").as_u64();
  }

  for (const util::JsonValue& event : root.at("traceEvents").as_array()) {
    const std::string_view ph = event.at("ph").as_string();
    if (ph == "M") continue;
    if (ph != "X" && ph != "i") continue;  // foreign events: tolerate
    util::ProfileCategory category;
    const std::string_view cat = event.at("cat").as_string();
    if (!util::profile_category_from_string(cat, category)) {
      throw std::runtime_error("profile: unknown span category '" +
                               std::string(cat) + "'");
    }
    const std::size_t tid = lane_index(event);
    if (tid >= doc.snapshot.lanes.size()) doc.snapshot.lanes.resize(tid + 1);
    const util::JsonValue args = event.at("args");
    util::ProfileRecord record;
    record.category = category;
    record.start_ns = args.at("s_ns").as_u64();
    record.end_ns =
        ph == "X" ? record.start_ns + args.at("d_ns").as_u64() : record.start_ns;
    if (args.has("arg")) record.arg = args.at("arg").as_u64();
    if (args.has("weight_s")) record.weight = args.at("weight_s").as_number();
    doc.snapshot.lanes[tid].records.push_back(record);
  }
  return doc;
}

}  // namespace

ProfileDocument parse_profile(const std::string& text) {
  util::JsonDocument parsed;
  util::parse_located<std::runtime_error>(parsed, text, "profile: malformed JSON");
  return util::read_located(text, "profile: ", [&] { return read_profile(parsed.root()); });
}

ProfileDocument parse_profile_file(const std::string& path) {
  const auto text = util::read_text_file(path);
  if (!text) throw std::runtime_error("profile: cannot read " + path);
  return parse_profile(*text);
}

namespace {

/// A span with its lane and nesting depth, after tree assignment.
struct FlatSpan {
  std::size_t lane = 0;
  std::size_t depth = 0;
  util::ProfileRecord record;
  std::uint64_t child_ns = 0;  ///< summed durations of direct children
  std::vector<std::size_t> category_path;  ///< ancestor categories + own
};

/// Leaf interval: a span's coverage minus its children (what the Gantt
/// paints and the critical-path union consumes).
struct LeafInterval {
  std::size_t lane = 0;
  util::ProfileCategory category{};
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

struct Analysis {
  std::vector<FlatSpan> spans;  ///< all spans, all lanes
  std::vector<LeafInterval> leaves;
  std::uint64_t wall_ns = 0;  ///< max end tick over every record
  std::uint64_t instant_counts[util::kProfileCategoryCount] = {};
};

/// Assign parents per lane with a start-sorted stack walk, accumulate
/// child time, and flatten self-coverage into leaf intervals.
Analysis analyze(const util::ProfileSnapshot& snapshot) {
  Analysis a;
  for (std::size_t lane = 0; lane < snapshot.lanes.size(); ++lane) {
    std::vector<util::ProfileRecord> spans;
    for (const util::ProfileRecord& r : snapshot.lanes[lane].records) {
      a.wall_ns = std::max(a.wall_ns, r.end_ns);
      if (util::profile_category_is_instant(r.category)) {
        ++a.instant_counts[static_cast<std::size_t>(r.category)];
      } else {
        spans.push_back(r);
      }
    }
    std::sort(spans.begin(), spans.end(),
              [](const util::ProfileRecord& x, const util::ProfileRecord& y) {
                if (x.start_ns != y.start_ns) return x.start_ns < y.start_ns;
                return x.end_ns > y.end_ns;  // enclosing span first
              });

    // stack holds indexes into a.spans of currently-open ancestors.
    std::vector<std::size_t> stack;
    for (const util::ProfileRecord& r : spans) {
      while (!stack.empty() && a.spans[stack.back()].record.end_ns <= r.start_ns) {
        stack.pop_back();
      }
      FlatSpan flat;
      flat.lane = lane;
      flat.record = r;
      if (!stack.empty()) {
        FlatSpan& parent = a.spans[stack.back()];
        flat.depth = parent.depth + 1;
        flat.category_path = parent.category_path;
        parent.child_ns += span_duration(r);
        // The parent's coverage between its last emitted leaf edge and this
        // child's start is parent self time; emitted in the second pass.
      }
      flat.category_path.push_back(static_cast<std::size_t>(r.category));
      a.spans.push_back(std::move(flat));
      stack.push_back(a.spans.size() - 1);
    }
  }

  // Leaf emission: per span, coverage minus direct children (children are
  // contiguous in start order and lie inside the parent by construction).
  // Rebuild child lists from the paths: a direct child is any later span in
  // the same lane nested exactly one deeper whose interval lies inside.
  for (std::size_t i = 0; i < a.spans.size(); ++i) {
    const FlatSpan& s = a.spans[i];
    std::uint64_t cursor = s.record.start_ns;
    for (std::size_t j = i + 1; j < a.spans.size(); ++j) {
      const FlatSpan& t = a.spans[j];
      if (t.lane != s.lane || t.record.start_ns >= s.record.end_ns) break;
      if (t.depth != s.depth + 1) continue;
      if (t.record.start_ns > cursor) {
        a.leaves.push_back({s.lane, s.record.category, cursor, t.record.start_ns});
      }
      cursor = std::max(cursor, t.record.end_ns);
    }
    if (cursor < s.record.end_ns) {
      a.leaves.push_back({s.lane, s.record.category, cursor, s.record.end_ns});
    }
  }
  return a;
}

/// Length of the union of [start, end) intervals.
std::uint64_t union_length(std::vector<std::pair<std::uint64_t, std::uint64_t>> v) {
  std::sort(v.begin(), v.end());
  std::uint64_t total = 0;
  std::uint64_t cursor = 0;
  bool open = false;
  std::uint64_t open_end = 0;
  for (const auto& [start, end] : v) {
    if (!open || start > open_end) {
      if (open) total += open_end - cursor;
      cursor = start;
      open_end = end;
      open = true;
    } else {
      open_end = std::max(open_end, end);
    }
  }
  if (open) total += open_end - cursor;
  return total;
}

std::string percent_of(std::uint64_t part, std::uint64_t whole) {
  if (whole == 0) return "-";
  return fmt("%.1f%%", 100.0 * static_cast<double>(part) /
                           static_cast<double>(whole));
}

/// One cross-check row: profiler total vs external total, 1% tolerance.
void check_row(util::TextTable& table, const std::string& what,
               double profiler_value, double external_value,
               const char* unit) {
  const double reference = std::max(std::abs(profiler_value), std::abs(external_value));
  const double delta =
      reference > 0.0 ? std::abs(profiler_value - external_value) / reference : 0.0;
  table.add_row({what, fmt("%.6g", profiler_value) + unit,
                 fmt("%.6g", external_value) + unit, fmt("%.2f%%", delta * 100.0),
                 delta <= 0.01 ? "ok" : "DRIFT"});
}

}  // namespace

std::string render_profile_report(const ProfileDocument& doc,
                                  const ProfileReportOptions& options) {
  const util::ProfileSnapshot& snapshot = doc.snapshot;
  const Analysis a = analyze(snapshot);
  std::ostringstream out;

  out << "self-profile";
  if (!doc.meta.benchmark.empty()) {
    out << ": " << doc.meta.benchmark << " / " << doc.meta.strategy;
  }
  out << "\n";
  out << "  lanes " << snapshot.lanes.size() << ", spans " << a.spans.size()
      << ", wall " << fmt("%.3f", ms(a.wall_ns)) << " ms\n\n";

  // --- Category hierarchy -------------------------------------------------
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t self_ns = 0;
  };
  std::map<std::vector<std::size_t>, Agg> hierarchy;
  for (const FlatSpan& s : a.spans) {
    Agg& agg = hierarchy[s.category_path];
    ++agg.count;
    agg.total_ns += span_duration(s.record);
    agg.self_ns += span_duration(s.record) - std::min(span_duration(s.record), s.child_ns);
  }
  out << "category hierarchy (host time; self = minus nested spans)\n";
  {
    util::TextTable table;
    table.columns({"category", "count", "total ms", "self ms", "% wall"},
                  {util::Align::Left, util::Align::Right, util::Align::Right,
                   util::Align::Right, util::Align::Right});
    for (const auto& [path, agg] : hierarchy) {
      std::string name(2 * (path.size() - 1), ' ');
      name += util::to_string(static_cast<util::ProfileCategory>(path.back()));
      table.add_row({name, std::to_string(agg.count), fmt("%.3f", ms(agg.total_ns)),
                     fmt("%.3f", ms(agg.self_ns)),
                     percent_of(agg.total_ns, a.wall_ns)});
    }
    out << table.render();
  }
  {
    bool any = false;
    std::ostringstream line;
    line << "instants:";
    for (std::size_t i = 0; i < util::kProfileCategoryCount; ++i) {
      if (a.instant_counts[i] == 0) continue;
      line << " " << util::to_string(static_cast<util::ProfileCategory>(i))
           << "=" << a.instant_counts[i];
      any = true;
    }
    if (any) out << line.str() << "\n";
  }
  out << "\n";

  // --- Worker-lane Gantt --------------------------------------------------
  out << "worker lanes (" << options.gantt_width << " cols, "
      << fmt("%.3f", ms(a.wall_ns / std::max<std::size_t>(1, options.gantt_width)))
      << " ms/col)\n";
  {
    std::size_t name_width = 0;
    for (const auto& lane : snapshot.lanes) {
      name_width = std::max(name_width, lane.thread_name.size());
    }
    for (std::size_t lane = 0; lane < snapshot.lanes.size(); ++lane) {
      const std::size_t width = std::max<std::size_t>(1, options.gantt_width);
      // coverage[col][category] in ns; the glyph is the best-covered
      // category of each column.
      std::vector<std::vector<std::uint64_t>> coverage(
          width, std::vector<std::uint64_t>(util::kProfileCategoryCount, 0));
      std::uint64_t busy_ns = 0;
      for (const LeafInterval& leaf : a.leaves) {
        if (leaf.lane != lane) continue;
        if (leaf.category != util::ProfileCategory::PoolIdle) {
          busy_ns += leaf.end_ns - leaf.start_ns;
        }
        if (a.wall_ns == 0) continue;
        const double scale = static_cast<double>(width) /
                             static_cast<double>(a.wall_ns);
        std::size_t first = static_cast<std::size_t>(
            static_cast<double>(leaf.start_ns) * scale);
        std::size_t last = static_cast<std::size_t>(
            static_cast<double>(leaf.end_ns) * scale);
        first = std::min(first, width - 1);
        last = std::min(last, width - 1);
        for (std::size_t col = first; col <= last; ++col) {
          const std::uint64_t col_lo = static_cast<std::uint64_t>(
              static_cast<double>(col) / scale);
          const std::uint64_t col_hi = static_cast<std::uint64_t>(
              static_cast<double>(col + 1) / scale);
          const std::uint64_t lo = std::max(leaf.start_ns, col_lo);
          const std::uint64_t hi = std::min(leaf.end_ns, col_hi);
          if (hi > lo) {
            coverage[col][static_cast<std::size_t>(leaf.category)] += hi - lo;
          }
        }
      }
      std::string row(width, ' ');
      for (std::size_t col = 0; col < width; ++col) {
        std::size_t best = util::kProfileCategoryCount;
        std::uint64_t best_ns = 0;
        for (std::size_t c = 0; c < util::kProfileCategoryCount; ++c) {
          if (coverage[col][c] > best_ns) {
            best_ns = coverage[col][c];
            best = c;
          }
        }
        if (best < util::kProfileCategoryCount) {
          row[col] = category_glyph(static_cast<util::ProfileCategory>(best));
        }
      }
      std::string name = snapshot.lanes[lane].thread_name;
      name.resize(name_width, ' ');
      out << "  " << name << " |" << row << "| busy "
          << percent_of(busy_ns, a.wall_ns) << "\n";
    }
    out << "  legend: #=task s=setup k=kernel .=idle c=commit-wait "
           "r=racing-round S=seed F=fit C=confirm j=journal w=checkpoint\n\n";
  }

  // --- Top-N longest spans ------------------------------------------------
  {
    std::vector<const FlatSpan*> sorted;
    sorted.reserve(a.spans.size());
    for (const FlatSpan& s : a.spans) sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const FlatSpan* x, const FlatSpan* y) {
                const std::uint64_t dx = span_duration(x->record);
                const std::uint64_t dy = span_duration(y->record);
                if (dx != dy) return dx > dy;
                if (x->lane != y->lane) return x->lane < y->lane;
                return x->record.start_ns < y->record.start_ns;
              });
    const std::size_t n = std::min(options.top_spans, sorted.size());
    out << "top " << n << " longest spans\n";
    util::TextTable table;
    table.columns({"category", "lane", "start ms", "dur ms", "arg"},
                  {util::Align::Left, util::Align::Left, util::Align::Right,
                   util::Align::Right, util::Align::Right});
    for (std::size_t i = 0; i < n; ++i) {
      const FlatSpan& s = *sorted[i];
      table.add_row({util::to_string(s.record.category),
                     snapshot.lanes[s.lane].thread_name,
                     fmt("%.3f", ms(s.record.start_ns)),
                     fmt("%.3f", ms(span_duration(s.record))),
                     std::to_string(s.record.arg)});
    }
    out << table.render() << "\n";
  }

  // --- Critical path + overhead -------------------------------------------
  {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> active;
    std::uint64_t active_total = 0;
    for (const LeafInterval& leaf : a.leaves) {
      if (leaf.category == util::ProfileCategory::PoolIdle ||
          leaf.category == util::ProfileCategory::CommitWait) {
        continue;
      }
      active.push_back({leaf.start_ns, leaf.end_ns});
      active_total += leaf.end_ns - leaf.start_ns;
    }
    const std::uint64_t critical = union_length(std::move(active));
    out << "critical-path estimate: " << fmt("%.3f", ms(critical))
        << " ms covered by work (wall " << fmt("%.3f", ms(a.wall_ns))
        << " ms, parallelism "
        << (critical > 0
                ? fmt("%.2f", static_cast<double>(active_total) /
                                  static_cast<double>(critical))
                : std::string("-"))
        << "x)\n";
    const double overhead_ns =
        doc.meta.overhead_ns_per_record *
        static_cast<double>(snapshot.total_records());
    out << "profiler self-overhead: ~" << fmt("%.3f", overhead_ns / 1e6)
        << " ms (" << snapshot.total_records() << " records x "
        << fmt("%.0f", doc.meta.overhead_ns_per_record) << " ns), dropped "
        << snapshot.total_dropped() << "\n\n";
  }

  // --- Cross-checks -------------------------------------------------------
  if (doc.meta.have_sums || doc.meta.sched.has_value()) {
    double kernel_weight = 0.0;
    double setup_weight = 0.0;
    std::uint64_t task_ns = 0;
    std::uint64_t idle_ns = 0;
    std::uint64_t commit_ns = 0;
    for (const FlatSpan& s : a.spans) {
      switch (s.record.category) {
        case util::ProfileCategory::Kernel: kernel_weight += s.record.weight; break;
        case util::ProfileCategory::Setup: setup_weight += s.record.weight; break;
        case util::ProfileCategory::TaskExec: task_ns += span_duration(s.record); break;
        case util::ProfileCategory::PoolIdle: idle_ns += span_duration(s.record); break;
        case util::ProfileCategory::CommitWait: commit_ns += span_duration(s.record); break;
        default: break;
      }
    }
    out << "cross-check (profiler vs report/scheduler accounting)\n";
    util::TextTable table;
    table.columns({"quantity", "profiler", "reference", "delta", ""},
                  {util::Align::Left, util::Align::Right, util::Align::Right,
                   util::Align::Right, util::Align::Left});
    if (doc.meta.have_sums) {
      check_row(table, "kernel time (backend s)", kernel_weight,
                doc.meta.kernel_s_sum, " s");
      check_row(table, "setup time (backend s)", setup_weight,
                doc.meta.setup_s_sum, " s");
    }
    if (doc.meta.sched.has_value()) {
      const core::SchedulerStats& s = *doc.meta.sched;
      check_row(table, "worker busy (host ms)", ms(task_ns), ms(s.busy_ns),
                " ms");
      check_row(table, "worker idle (host ms)", ms(idle_ns), ms(s.idle_ns),
                " ms");
      check_row(table, "commit wait (host ms)", ms(commit_ns),
                ms(s.commit_wait_ns), " ms");
      using C = util::ProfileCategory;
      check_row(table, "steals (count)",
                static_cast<double>(a.instant_counts[static_cast<std::size_t>(C::Steal)]),
                static_cast<double>(s.steals), "");
      check_row(table, "parks (count)",
                static_cast<double>(a.instant_counts[static_cast<std::size_t>(C::Park)]),
                static_cast<double>(s.parks), "");
    }
    out << table.render();
  }
  return out.str();
}

}  // namespace rooftune::trace

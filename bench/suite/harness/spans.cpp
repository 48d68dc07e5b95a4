#include "harness/spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"

namespace rooftune::suite {

namespace {

std::atomic<std::uint64_t> next_tracer_id{1};

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The calling thread's lane for the tracer it last used.  Tracer ids are
/// never reused, so a stale cache entry can only miss, never alias.
struct LaneCache {
  std::uint64_t tracer_id = 0;
  Tracer::Lane* lane = nullptr;
};
thread_local LaneCache lane_cache;

std::string layer_of(const std::string& name) {
  const auto dot = name.find('.');
  return dot == std::string::npos ? name : name.substr(0, dot);
}

}  // namespace

struct Tracer::Lane {
  struct Frame {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::uint64_t id;
    std::uint64_t parent;
  };
  struct Event {
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t id;
    std::uint64_t parent;
  };

  std::size_t index = 0;
  std::string name;
  std::uint64_t next_local_id = 1;
  std::vector<Frame> stack;
  std::vector<Event> events;
  std::unordered_map<const char*, Aggregate> aggregates;
  std::uint64_t top_level_ns = 0;
  std::uint64_t dropped = 0;
};

Tracer::Aggregate& Tracer::Aggregate::operator+=(const Aggregate& other) {
  calls += other.calls;
  total_ns += other.total_ns;
  self_ns += other.self_ns;
  return *this;
}

Tracer::Tracer(std::size_t events_per_lane)
    : id_(next_tracer_id.fetch_add(1)),
      capacity_(events_per_lane),
      epoch_ns_(steady_ns()) {}

Tracer::~Tracer() = default;

std::uint64_t Tracer::now_ns() const { return steady_ns() - epoch_ns_; }

Tracer::Lane& Tracer::lane() {
  if (lane_cache.tracer_id == id_) return *lane_cache.lane;
  std::lock_guard<std::mutex> lock(mutex_);
  auto owned = std::make_unique<Lane>();
  owned->index = lanes_.size();
  owned->name = "thread-" + std::to_string(owned->index);
  owned->events.reserve(std::min<std::size_t>(capacity_, 4096));
  lanes_.push_back(std::move(owned));
  lane_cache = {id_, lanes_.back().get()};
  return *lanes_.back();
}

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent) {
  Lane& l = lane();
  // Ids are unique per tracer without a shared counter: lane index in the
  // high bits, a per-lane sequence below.
  const std::uint64_t id =
      (static_cast<std::uint64_t>(l.index + 1) << 40) | l.next_local_id++;
  if (!l.stack.empty()) parent = l.stack.back().id;
  l.stack.push_back({name, now_ns(), 0, id, parent});
  return id;
}

void Tracer::end() {
  const std::uint64_t end = now_ns();
  Lane& l = lane();
  if (l.stack.empty()) throw std::logic_error("Tracer::end without begin");
  const Lane::Frame frame = l.stack.back();
  l.stack.pop_back();
  const std::uint64_t duration = end - frame.start_ns;
  Aggregate& agg = l.aggregates[frame.name];
  agg.calls += 1;
  agg.total_ns += duration;
  agg.self_ns += duration - std::min(duration, frame.child_ns);
  if (l.stack.empty()) {
    l.top_level_ns += duration;
  } else {
    l.stack.back().child_ns += duration;
  }
  if (l.events.size() < capacity_) {
    l.events.push_back({frame.name, frame.start_ns, end, frame.id, frame.parent});
  } else {
    ++l.dropped;
  }
}

std::uint64_t Tracer::current() {
  Lane& l = lane();
  return l.stack.empty() ? 0 : l.stack.back().id;
}

std::uint64_t Tracer::top_level_ns() { return lane().top_level_ns; }

void Tracer::set_thread_name(const std::string& name) {
  Lane& l = lane();
  std::lock_guard<std::mutex> lock(mutex_);
  l.name = name;
}

std::map<std::string, Tracer::Aggregate> Tracer::aggregates() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, Aggregate> merged;
  for (const auto& l : lanes_) {
    for (const auto& [name, agg] : l->aggregates) merged[name] += agg;
  }
  return merged;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& l : lanes_) total += l->dropped;
  return total;
}

std::string Tracer::chrome_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto micros = [](std::uint64_t ns) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", static_cast<double>(ns) / 1000.0);
    return std::string(buf);
  };
  util::JsonWriter json;
  json.begin_object();
  json.key("displayTimeUnit").value("ns");
  json.key("traceEvents").begin_array();
  for (const auto& l : lanes_) {
    json.begin_object();
    json.key("name").value("thread_name");
    json.key("ph").value("M");
    json.key("pid").value(1);
    json.key("tid").value(l->index);
    json.key("args").begin_object().key("name").value(l->name).end_object();
    json.end_object();
    for (const auto& e : l->events) {
      const std::string name = e.name;
      json.begin_object();
      json.key("name").value(name);
      json.key("cat").value(layer_of(name));
      json.key("ph").value("X");
      json.key("pid").value(1);
      json.key("tid").value(l->index);
      json.key("ts").raw_value(micros(e.start_ns));
      json.key("dur").raw_value(micros(e.end_ns - e.start_ns));
      json.key("args").begin_object();
      json.key("id").value(static_cast<unsigned long long>(e.id));
      json.key("parent").value(static_cast<unsigned long long>(e.parent));
      json.end_object();
      json.end_object();
    }
  }
  json.end_array();
  json.end_object();
  return json.str();
}

}  // namespace rooftune::suite

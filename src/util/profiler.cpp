#include "util/profiler.hpp"

#include <cstring>

namespace rooftune::util {

namespace {

struct CategoryInfo {
  const char* name;
  bool instant;
};

constexpr CategoryInfo kCategories[kProfileCategoryCount] = {
    {"task-exec", false},      {"pool-idle", false},
    {"setup", false},          {"kernel", false},
    {"commit-wait", false},    {"racing-round", false},
    {"surrogate-seed", false}, {"surrogate-fit", false},
    {"surrogate-confirm", false}, {"journal-flush", false},
    {"checkpoint", false},     {"steal", true},
    {"park", true},            {"incumbent", true},
    {"counter-prune", true},   {"epoch", true},
};

}  // namespace

const char* to_string(ProfileCategory category) {
  const auto index = static_cast<std::size_t>(category);
  if (index >= kProfileCategoryCount) return "?";
  return kCategories[index].name;
}

bool profile_category_is_instant(ProfileCategory category) {
  const auto index = static_cast<std::size_t>(category);
  if (index >= kProfileCategoryCount) return false;
  return kCategories[index].instant;
}

bool profile_category_from_string(std::string_view name,
                                  ProfileCategory& out) {
  for (std::size_t i = 0; i < kProfileCategoryCount; ++i) {
    if (name == kCategories[i].name) {
      out = static_cast<ProfileCategory>(i);
      return true;
    }
  }
  return false;
}

std::uint64_t ProfileSnapshot::total_records() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes) total += lane.records.size();
  return total;
}

std::uint64_t ProfileSnapshot::total_dropped() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes) total += lane.dropped;
  return total;
}

/// One thread's ring: a preallocated vector the owning thread appends to
/// without synchronization (registration is the only locked step).  A full
/// lane drops instead of growing — the hot path never allocates.
struct Profiler::Lane {
  std::string thread_name;
  std::vector<ProfileRecord> records;
  std::uint64_t dropped = 0;
  std::size_t capacity = 0;

  void push(const ProfileRecord& record) {
    if (records.size() >= capacity) {
      ++dropped;
      return;
    }
    records.push_back(record);
  }
};

namespace {

/// Thread-local lane cache.  The generation stamp invalidates it across
/// enable() cycles, so a re-enabled profiler never writes into lanes that
/// snapshot() already handed out.
struct LaneCache {
  std::uint64_t generation = 0;
  Profiler::Lane* lane = nullptr;
};

thread_local LaneCache t_lane_cache;

}  // namespace

Profiler& Profiler::instance() {
  static Profiler profiler;
  return profiler;
}

void Profiler::enable(std::size_t lane_capacity) {
  const std::scoped_lock lock(lanes_mutex_);
  lanes_.clear();
  lane_capacity_ = lane_capacity > 0 ? lane_capacity : 1;
  epoch_ = std::chrono::steady_clock::now();
  generation_.fetch_add(1, std::memory_order_release);

  // Calibrate the per-record cost on a scratch lane: the self-overhead
  // figure in the report is total records × this.
  {
    Lane scratch;
    scratch.capacity = 4096;
    scratch.records.reserve(scratch.capacity);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < scratch.capacity; ++i) {
      ProfileRecord record;
      record.start_ns = now_ns();
      record.end_ns = now_ns();
      record.category = ProfileCategory::Kernel;
      scratch.push(record);
    }
    const auto t1 = std::chrono::steady_clock::now();
    overhead_ns_per_record_ =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        static_cast<double>(scratch.capacity);
  }

  enabled_.store(true, std::memory_order_release);
}

void Profiler::disable() { enabled_.store(false, std::memory_order_release); }

std::uint64_t Profiler::now_ns() const {
  return to_ticks(std::chrono::steady_clock::now());
}

std::uint64_t Profiler::to_ticks(
    std::chrono::steady_clock::time_point tp) const {
  if (tp <= epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(tp - epoch_)
          .count());
}

Profiler::Lane* Profiler::lane_for_this_thread() {
  const std::uint64_t generation = generation_.load(std::memory_order_acquire);
  if (t_lane_cache.lane != nullptr &&
      t_lane_cache.generation == generation) {
    return t_lane_cache.lane;
  }
  const std::scoped_lock lock(lanes_mutex_);
  auto lane = std::make_unique<Lane>();
  lane->capacity = lane_capacity_;
  lane->records.reserve(lane->capacity);
  lane->thread_name = "thread-" + std::to_string(lanes_.size());
  t_lane_cache.lane = lane.get();
  t_lane_cache.generation = generation;
  lanes_.push_back(std::move(lane));
  return t_lane_cache.lane;
}

void Profiler::record(ProfileCategory category, std::uint64_t start_ns,
                      std::uint64_t end_ns, double weight, std::uint64_t arg) {
  if (!enabled()) return;
  ProfileRecord record;
  record.start_ns = start_ns;
  record.end_ns = end_ns < start_ns ? start_ns : end_ns;
  record.arg = arg;
  record.weight = weight;
  record.category = category;
  lane_for_this_thread()->push(record);
}

void Profiler::instant(ProfileCategory category, std::uint64_t arg) {
  if (!enabled()) return;
  const std::uint64_t now = now_ns();
  record(category, now, now, 0.0, arg);
}

void Profiler::set_thread_name(const std::string& name) {
  if (!enabled()) return;
  lane_for_this_thread()->thread_name = name;
}

ProfileSnapshot Profiler::snapshot() const {
  ProfileSnapshot snapshot;
  snapshot.overhead_ns_per_record = overhead_ns_per_record_;
  const std::scoped_lock lock(lanes_mutex_);
  snapshot.lanes.reserve(lanes_.size());
  for (const auto& lane : lanes_) {
    ProfileLane copy;
    copy.thread_name = lane->thread_name;
    copy.dropped = lane->dropped;
    copy.records = lane->records;
    snapshot.lanes.push_back(std::move(copy));
  }
  return snapshot;
}

ProfileSpan::ProfileSpan(ProfileCategory category, std::uint64_t arg) {
  Profiler& profiler = Profiler::instance();
  if (!profiler.enabled()) return;
  category_ = category;
  arg_ = arg;
  start_ns_ = profiler.now_ns();
  active_ = true;
}

void ProfileSpan::finish(double weight) {
  if (!active_) return;
  active_ = false;
  Profiler& profiler = Profiler::instance();
  profiler.record(category_, start_ns_, profiler.now_ns(), weight, arg_);
}

}  // namespace rooftune::util

#pragma once
// util/profiler.hpp — the span-based self-profiler behind `--profile`.
//
// The tuner's own accounting (setup/kernel sums, SchedulerStats counters)
// says *how much* time went where; this profiler says *when*: RAII scopes
// write (start, end) steady-clock tick pairs into per-thread fixed-capacity
// lanes, which the CLI merges into a Chrome trace-event JSON sidecar at run
// end (src/trace/profile_export.hpp).  Like the telemetry sidecar, profile
// data is wall-clock and lives strictly outside the trace journal's
// byte-identity boundary — enabling the profiler never changes a journal
// byte.
//
// Cost model: disabled (the default), every hot-path call is one relaxed
// atomic load and a branch — no allocation, no clock read.  Enabled, a span
// is two steady_clock reads plus one bounds-checked append into a lane the
// thread owns exclusively; a full lane counts drops instead of reallocating.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rooftune::util {

/// Where a profile record came from.  Span categories cover an interval;
/// instant categories mark a point (end_ns == start_ns).  The names feed
/// the Chrome trace "name"/"cat" fields and the `rooftune profile` report,
/// so they are part of the sidecar schema (docs/observability.md).
enum class ProfileCategory : std::uint8_t {
  // Spans.
  TaskExec = 0,      ///< pool task body (one config / racing invocation)
  PoolIdle,          ///< worker failed-acquire + park interval
  Setup,             ///< backend begin_invocation / end_invocation
  Kernel,            ///< the timed kernel iteration loop
  CommitWait,        ///< coordinator waiting on the in-order commit frontier
  RacingRound,       ///< one racing round, dispatch through conclude
  SurrogateSeed,     ///< surrogate seed-batch evaluation
  SurrogateFit,      ///< surrogate model fit + full-space prune
  SurrogateConfirm,  ///< surrogate confirm race
  JournalFlush,      ///< trace journal serialization + write
  Checkpoint,        ///< checkpoint log append + flush
  // Instants.
  Steal,             ///< never recorded (one-queue pool); kept for old profiles
  Park,              ///< worker went to sleep on the pool condition variable
  Incumbent,         ///< the committed incumbent improved
  CounterPrune,      ///< counter-guided prune retired a configuration
  Epoch,             ///< pipeline commit frontier crossed an epoch boundary
};

inline constexpr std::size_t kProfileCategoryCount = 16;

/// Schema name of a category ("task-exec", "kernel", ...).
const char* to_string(ProfileCategory category);

/// True for point events (Steal, Park, Incumbent, CounterPrune, Epoch).
bool profile_category_is_instant(ProfileCategory category);

/// Parse a schema name back to its category; false when unknown.
bool profile_category_from_string(std::string_view name,
                                  ProfileCategory& out);

/// One event.  Ticks are nanoseconds since the profiler was enabled, from
/// the same steady clock on every thread.  `weight` carries the
/// backend-reported seconds for Setup/Kernel spans (simulated backends
/// report simulated time, so host ticks and report sums need separate
/// fields for the cross-check); 0 elsewhere.  `arg` is a category-specific
/// ordinal (config index, worker, epoch).
struct ProfileRecord {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t arg = 0;
  double weight = 0.0;
  ProfileCategory category = ProfileCategory::TaskExec;
};

/// One thread's merged records, in append (end-time) order.
struct ProfileLane {
  std::string thread_name;
  std::uint64_t dropped = 0;
  std::vector<ProfileRecord> records;
};

struct ProfileSnapshot {
  std::vector<ProfileLane> lanes;
  /// Calibrated per-record cost (clock reads + append), measured at
  /// enable(); the report's self-overhead estimate is records × this.
  double overhead_ns_per_record = 0.0;

  [[nodiscard]] std::uint64_t total_records() const;
  [[nodiscard]] std::uint64_t total_dropped() const;
};

/// Process-wide profiler singleton.  enable()/snapshot()/disable() are
/// coordinator-side (not thread-safe against in-flight recording from live
/// worker threads — callers snapshot after the pool is destroyed, which is
/// how the CLI sequences it); record()/instant()/span are safe from any
/// thread concurrently.
class Profiler {
 public:
  static constexpr std::size_t kDefaultLaneCapacity = 1u << 16;

  struct Lane;  ///< per-thread storage; defined in profiler.cpp

  static Profiler& instance();

  /// Drop all previous lanes, re-arm, and restart the tick epoch.
  void enable(std::size_t lane_capacity = kDefaultLaneCapacity);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Nanoseconds since enable() on the shared steady clock.
  [[nodiscard]] std::uint64_t now_ns() const;
  /// Convert a raw steady_clock reading (taken for other accounting) to
  /// profiler ticks, so instrumentation can reuse existing clock reads.
  [[nodiscard]] std::uint64_t to_ticks(
      std::chrono::steady_clock::time_point tp) const;

  /// Append a span record to the calling thread's lane.  No-op when
  /// disabled.
  void record(ProfileCategory category, std::uint64_t start_ns,
              std::uint64_t end_ns, double weight = 0.0, std::uint64_t arg = 0);
  /// Append a point event at now.
  void instant(ProfileCategory category, std::uint64_t arg = 0);
  /// Name the calling thread's lane ("coordinator", "worker-3").  No-op
  /// when disabled.
  void set_thread_name(const std::string& name);

  /// Merge every lane.  Threads that recorded must be quiescent (joined or
  /// provably idle); lanes appear in registration order.
  [[nodiscard]] ProfileSnapshot snapshot() const;

 private:
  Profiler() = default;
  Lane* lane_for_this_thread();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  std::chrono::steady_clock::time_point epoch_{};
  double overhead_ns_per_record_ = 0.0;

  mutable std::mutex lanes_mutex_;
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::size_t lane_capacity_ = kDefaultLaneCapacity;
};

/// RAII span: reads the clock at construction and records on finish() or
/// destruction.  Constructing while the profiler is disabled costs one
/// branch and records nothing.
class ProfileSpan {
 public:
  ProfileSpan() = default;  ///< inactive span
  explicit ProfileSpan(ProfileCategory category, std::uint64_t arg = 0);
  ~ProfileSpan() { finish(); }

  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

  /// Record the span now (idempotent).  `weight` carries backend-reported
  /// seconds for the cross-check categories.
  void finish(double weight = 0.0);
  [[nodiscard]] bool active() const { return active_; }

 private:
  std::uint64_t start_ns_ = 0;
  std::uint64_t arg_ = 0;
  ProfileCategory category_ = ProfileCategory::TaskExec;
  bool active_ = false;
};

}  // namespace rooftune::util

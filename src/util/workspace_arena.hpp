#pragma once
// Workspace arena: high-water-mark slab allocator for kernel operands.
//
// The native backends rebuild their operands on every benchmark invocation
// — three fresh DGEMM matrices, three fresh STREAM vectors — which costs an
// mmap, a page-fault storm and a first-touch pass per invocation.  Over a
// 96-configuration sweep with 10 invocations each, that setup dominates the
// non-kernel share of tuning time (the paper's whole point is minimizing
// that share).  The arena removes it: buffers are leased by (role, bytes)
// key from per-role slabs that only ever grow, so after the first
// invocation of the largest working set the steady-state loop performs
// zero allocations and zero page faults — every lease is a slab hit.
//
// Design points:
//  * Slabs are page-aligned (a superset of the 64-byte SIMD alignment the
//    kernels need) so the whole slab can be madvise(MADV_HUGEPAGE)d when
//    ArenaOptions::huge_pages is set — fewer TLB misses on multi-hundred-MiB
//    STREAM vectors.
//  * New slabs are first-touched inside an OpenMP `schedule(static)` loop
//    over their elements — the same static partition the STREAM/DGEMM
//    kernels use — so with OMP_PLACES/PROC_BIND configured, pages land on
//    the NUMA node of the thread that will stream them.
//  * Growth is monotone per role: a lease never shrinks a slab, so equal or
//    smaller working sets (later configurations in a sweep) reuse memory
//    across invocations *and* configurations.
//  * Not thread-safe by design: ParallelEvaluator workers each own a
//    backend and therefore an arena, which avoids lease contention
//    entirely.  The internal first-touch loop may still fan out over
//    OpenMP threads.
//
// Every lease and slab event is counted in ArenaStats, which backends
// surface through Backend::arena_stats() into reports — the instrumented
// proof that the steady-state inner loop allocates nothing.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace rooftune::util {

struct ArenaOptions {
  /// Request transparent-huge-page backing for slabs (Linux
  /// madvise(MADV_HUGEPAGE); silently a no-op elsewhere or when THP is
  /// disabled system-wide — see docs/performance.md for prerequisites).
  bool huge_pages = false;
  /// First-touch new slabs with an OpenMP static loop (see file comment).
  /// Disable for tiny test arenas where spawning a team costs more than
  /// the faults it places.
  bool first_touch = true;
};

/// Monotone counters; aggregate across arenas with operator+=.
struct ArenaStats {
  std::uint64_t leases = 0;          ///< lease() calls served
  std::uint64_t slab_hits = 0;       ///< served from an existing slab
  std::uint64_t slab_misses = 0;     ///< slab had to be created or grown
  std::uint64_t allocations = 0;     ///< slab (re)allocations performed
  std::uint64_t bytes_leased = 0;    ///< sum of requested bytes over leases
  std::uint64_t bytes_reserved = 0;  ///< current high-water capacity
  std::uint64_t pages_touched = 0;   ///< pages first-touched at allocation

  ArenaStats& operator+=(const ArenaStats& other) {
    leases += other.leases;
    slab_hits += other.slab_hits;
    slab_misses += other.slab_misses;
    allocations += other.allocations;
    bytes_leased += other.bytes_leased;
    bytes_reserved += other.bytes_reserved;
    pages_touched += other.pages_touched;
    return *this;
  }

  friend bool operator==(const ArenaStats&, const ArenaStats&) = default;
};

class WorkspaceArena {
 public:
  /// Kernel operands want 64-byte (cache-line / AVX-512) alignment; slabs
  /// are page-aligned, which implies it.
  static constexpr std::size_t alignment = 64;

  explicit WorkspaceArena(ArenaOptions options = {});
  ~WorkspaceArena();

  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;
  WorkspaceArena(WorkspaceArena&&) = delete;
  WorkspaceArena& operator=(WorkspaceArena&&) = delete;

  /// Lease at least `bytes` of page-aligned storage for `role`.  The
  /// pointer stays valid (and its contents intact) until a *larger* lease
  /// of the same role or release_all(); contents are unspecified after a
  /// slab grows.  bytes == 0 returns the slab as-is (nullptr when the role
  /// has never leased).
  void* lease(std::string_view role, std::size_t bytes);

  /// Typed convenience: lease `count` elements of T.
  template <typename T>
  T* lease_array(std::string_view role, std::size_t count) {
    if (count > ~std::size_t{0} / sizeof(T)) throw std::bad_alloc();
    return static_cast<T*>(lease(role, count * sizeof(T)));
  }

  /// Free every slab.  Stats keep accumulating across releases (a release
  /// does not erase history; bytes_reserved drops to zero).
  void release_all();

  [[nodiscard]] const ArenaStats& stats() const { return stats_; }
  void reset_stats() { stats_ = ArenaStats{}; stats_.bytes_reserved = reserved_; }

  [[nodiscard]] std::size_t slab_count() const { return slabs_.size(); }
  [[nodiscard]] const ArenaOptions& options() const { return options_; }

  /// System page size (cached); the slab alignment/rounding unit.
  [[nodiscard]] static std::size_t page_size();

 private:
  struct Slab {
    void* data = nullptr;
    std::size_t capacity = 0;  ///< bytes, page-rounded
  };

  void grow(Slab& slab, std::size_t bytes);
  void first_touch(void* data, std::size_t bytes) const;

  ArenaOptions options_;
  std::map<std::string, Slab, std::less<>> slabs_;
  std::uint64_t reserved_ = 0;
  ArenaStats stats_;
};

}  // namespace rooftune::util

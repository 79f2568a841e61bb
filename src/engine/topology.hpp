// Hardware topology, plane memory, and the intra-cell worker team.
//
// The batch planes won the per-instruction fight (SIMD passes, word masks);
// what is left between the engine and the hardware limit is placement —
// which pages back a plane, which core runs which replica block.  This
// header owns all three placement layers:
//
//   * HwTopology — a small explicit model of the machine (logical CPUs,
//     physical cores, SMT siblings, NUMA nodes) parsed from Linux sysfs
//     with a portable fallback (everything one core, one node).  Consumers
//     never re-parse sysfs: detect() caches one instance per process.
//   * Plane memory — PlaneVector<T>, a std::vector whose allocator hands
//     out 64-byte-aligned memory (full-width AVX-512 loads) and, for
//     multi-megabyte planes, 2 MiB-aligned regions advised MADV_HUGEPAGE.
//     Wide batches live or die on this: at B=256 the visit and stamp rows
//     are multi-MB lane-major arrays walked with per-robot scattered
//     accesses, and 4 KiB pages thrash the TLB long before the cache gives
//     out.  NUMA placement follows from first-touch: planes are touched by
//     the thread that allocates them, so a SweepRunner worker pinned to a
//     node allocates its cell's planes node-locally with no explicit mbind.
//   * WorkerTeam — a persistent spin-then-park thread pool sized and
//     pinned via HwTopology (physical cores first, SMT siblings last).
//     Batch rounds are tens of microseconds, so handing out work through a
//     condition variable per round would cost more than the work; the team
//     publishes a job through one atomic generation counter, workers spin
//     briefly before parking, and the caller participates as slot 0.
//     BatchEngine splits replica-block ranges across the team — every
//     parallel section writes only lane-indexed state, so results are
//     bit-identical to the serial pass by construction (see
//     batch_engine.cpp).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace pef {

// ---------------------------------------------------------------------------
// HwTopology

struct HwTopology {
  /// Logical CPUs visible to this process (>= 1).
  std::uint32_t logical_cpus = 1;
  /// Distinct physical cores backing them (>= 1; == logical_cpus when SMT
  /// is off or the parse fell back).
  std::uint32_t physical_cores = 1;
  /// NUMA nodes (>= 1).
  std::uint32_t numa_nodes = 1;
  /// core_of_cpu[cpu] = physical core id (dense, 0-based).
  std::vector<std::uint32_t> core_of_cpu;
  /// numa_of_cpu[cpu] = NUMA node id (dense, 0-based).
  std::vector<std::uint32_t> numa_of_cpu;
  /// True when the numbers came from sysfs rather than the portable
  /// fallback (std::thread::hardware_concurrency, one core = one cpu).
  bool from_sysfs = false;

  /// CPU ids in pinning priority order: one CPU per physical core first
  /// (round-robin across NUMA nodes), then the SMT siblings.  Worker i of
  /// a team pins to pin_order[i % size] — workers land on distinct cores
  /// until the cores run out, which is what a compute-bound batch wants.
  std::vector<std::uint32_t> pin_order;

  /// The process-wide instance (parsed once, never changes).
  [[nodiscard]] static const HwTopology& detect();

  /// Parse-from-scratch entry point, exposed for tests; `sysfs_root`
  /// defaults to "/sys" and a missing/partial tree yields the fallback.
  [[nodiscard]] static HwTopology parse(const char* sysfs_root);
};

/// Pin the calling thread to one logical CPU.  Returns false (and leaves
/// affinity untouched) off Linux or when the syscall fails — pinning is an
/// optimization, never a correctness requirement.
bool pin_current_thread(std::uint32_t cpu);

// ---------------------------------------------------------------------------
// Plane memory

/// Allocate `bytes` for a state plane: always 64-byte aligned; regions of
/// at least kHugePlaneBytes are 2 MiB-aligned and advised MADV_HUGEPAGE so
/// the kernel backs them with huge pages even under THP=madvise (the
/// common server default).  Pages are committed on first touch, so the
/// touching thread's NUMA node hosts them.
inline constexpr std::size_t kHugePlaneBytes = std::size_t{2} << 20;
[[nodiscard]] void* plane_alloc(std::size_t bytes);
void plane_free(void* p, std::size_t bytes) noexcept;

/// Minimal allocator over plane_alloc/plane_free.
template <typename T>
struct PlaneAllocator {
  using value_type = T;
  PlaneAllocator() noexcept = default;
  template <typename U>
  PlaneAllocator(const PlaneAllocator<U>&) noexcept {}
  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(plane_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    plane_free(p, n * sizeof(T));
  }
  template <typename U>
  bool operator==(const PlaneAllocator<U>&) const noexcept {
    return true;
  }
};

/// The replica-SoA planes' container: std::vector semantics, plane-backed
/// storage.
template <typename T>
using PlaneVector = std::vector<T, PlaneAllocator<T>>;

// ---------------------------------------------------------------------------
// WorkerTeam

class WorkerTeam {
 public:
  /// A team of `slots` executors: the caller of run() plus slots-1 pinned
  /// worker threads (slots <= 1 spawns nothing and run() degenerates to a
  /// direct call).  Workers pin to HwTopology::detect().pin_order —
  /// distinct physical cores first — when the machine has that many CPUs.
  explicit WorkerTeam(std::uint32_t slots);
  ~WorkerTeam();
  WorkerTeam(const WorkerTeam&) = delete;
  WorkerTeam& operator=(const WorkerTeam&) = delete;

  [[nodiscard]] std::uint32_t slots() const { return slots_; }

  /// Execute job(ctx, slot) once per slot in [0, slots); the caller runs
  /// slot 0 and the call returns when every slot finished.  The job must
  /// partition its work by slot index into disjoint state — the team adds
  /// no synchronization beyond the end-of-job barrier.
  void run(void (*job)(void*, std::uint32_t), void* ctx);

  /// Type-safe wrapper: fn(slot).
  template <typename Fn>
  void for_each_slot(Fn&& fn) {
    run(
        [](void* ctx, std::uint32_t slot) {
          (*static_cast<Fn*>(ctx))(slot);
        },
        &fn);
  }

 private:
  void worker_main(std::uint32_t slot);

  std::uint32_t slots_ = 1;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::uint32_t> pending_{0};
  std::atomic<bool> stop_{false};
  void (*job_)(void*, std::uint32_t) = nullptr;
  void* ctx_ = nullptr;

  // Park/wake path, taken only after a worker has spun idle for a while
  // (between batches, not between rounds).
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::uint32_t> parked_{0};

  std::vector<std::thread> threads_;
};

}  // namespace pef

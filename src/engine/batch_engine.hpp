// BatchEngine — the replica-batched Monte-Carlo execution core.
//
// A sweep cell and a pef_run --batch run both run the SAME scenario
// (ring, algorithm, execution model, horizon) B times with different seeds
// or adversary draws.  Running those as B independent Engines wastes the
// structure: every replica re-pays the round-loop fixed costs (kernel
// dispatch, adversary virtual calls, loop setup) and the per-replica state
// is touched in B separate passes with cold caches between seeds.
//
// BatchEngine advances all B replicas in lock-step — one call to step()
// runs one round of every unfinished replica — with the robot state laid
// out struct-of-arrays ACROSS replicas:
//
//     node_[robot * B + replica]          (u32 plane)
//     dir_ / right_cw_ / mult_[robot * B + replica]  (byte planes)
//     krng_ / kcounter_ / khas_moved_[robot * B + replica]
//                                         (kernel memory, one plane per
//                                          KernelState field)
//     visits_[replica * n + node]         (count+last-visit cells)
//
// so the round loops iterate robot-major with a replica-stride inner loop:
// B independent replicas' worth of identical, branch-light work the
// compiler can vectorize and the core can overlap (no serial dependence
// between replicas).  The Compute phase is the enum-dispatched kernel path
// of robot/kernel.hpp — the KernelId is lifted to a template parameter
// ONCE per round, so each kernel's Look+Compute body inlines straight into
// the replica loop: this is the SIMD hook the per-kernel loop
// instantiation was built for.
//
// The key deviation from Engine's round core: BatchEngine keeps NO
// occupancy histogram, under any execution model.  The only things
// occupancy feeds are the Look phase's multiplicity bit and the tower
// stats, and both reduce to the per-robot predicate "does some other robot
// share my node" — which one counting pass over the node planes recomputes
// per boundary as a byte plane (mult_): k^2 replica-wide vector compares
// with no gathers or scatters.  SSYNC and ASYNC Looks read the same plane
// (every Look reads the round-start configuration, and a robot's own node
// does not change before its own Look), so every model runs the same
// boundary: multiplicity, then visits.  With the multiplicity plane and E_t
// frozen for the round, Look, Compute and Move fuse into ONE
// replica-stride pass (no robot's action changes another's inputs),
// followed by a visit-bookkeeping pass over 8-byte per-(replica, node)
// cells, one vector of lanes per gather/scatter.
//
// The per-round ROUND PROLOGUE (who acts, which edges exist) is batched
// too — SSYNC and ASYNC are first-class citizens of the planes, not a
// scalar per-replica preamble:
//
//   * edge words live in ONE contiguous plane, one row per replica.  A
//     Look sees only the two edges beside its robot, so a row need only
//     hold E_t on the edges beside the lane's robots; every pass tests
//     edges at robot nodes only.  Each lane's row source is picked the
//     same way in every model.  Replicas whose adversary is
//     per-replica-independent (an ObliviousAdversary over a schedule: the
//     static, bernoulli, periodic, t-interval, bounded-absence,
//     eventual-missing and markov kinds) fill their row in place via
//     EdgeSchedule::edges_into_words, with no EdgeSet and no Configuration
//     mirror, and only at the rounds the schedule's next_change names (a
//     time-invariant schedule fills once, at construction).  A schedule
//     that lists its absent edges (EdgeSchedule::absent_edges: t-interval)
//     never fills its row: the row starts full, and at each next_change
//     the lane sets its previous absent edges again, clears the listed
//     ones and writes their endpoints from the list, at the cost of what
//     changed.  A Bernoulli lane draws only the edges beside its
//     robots, every round, and reads "present" everywhere else: one
//     vector draws one (robot, side) pair of its lanes, keys gathered
//     from each lane's key table, then each absent draw clears its bit in
//     its lane's row.  A crowded batch (2k >= n) fills its Bernoulli rows
//     whole instead, like any schedule.  A greedy-blocker
//     lane computes its row straight from the node and direction planes,
//     through the adversary's own rule (greedy_block), with its absence
//     runs in a lane plane.  One scan (note_absent) of each other refilled
//     schedule or blocker row counts its absent edges and, for at most
//     kSparseAbsent of them, lists their endpoint nodes (for the split
//     passes below; an SSYNC or ASYNC batch too narrow for them skips it,
//     except on listed lanes, whose list lives there).  A Bernoulli row
//     with any absent edge counts as dense: each of its absent edges
//     touches a robot, so a split pass could skip nothing.
//   * the pass body is chosen per lane range by its densest row.  A range
//     whose rows are all full runs FSYNC's AllFull instantiation with no
//     edge tests at all.  A range whose rows miss at most kSparseAbsent
//     edges (t-interval, eventual-missing, chains, cages) runs the split
//     pass: only a robot standing on an endpoint of an absent edge (a
//     "touched" one — a lane-major vector compare of the node rows against
//     the endpoint planes) can see a view that differs from the
//     all-present one, so per robot row and 64-lane word the untouched
//     lanes take the branchless body and the touched ones the generic
//     kernel per bit.  An FSYNC word where most lanes are touched (a
//     crowded one: a static chain under keep-direction parks most robots
//     on its ends) runs the sequential generic body instead.  SSYNC runs
//     the split pass under its activation words, full rows included (no
//     robot is touched there).  Denser rows, and the oscillating and
//     random-walk kernels, run the generic FSYNC body and SSYNC's per-bit
//     pass.  ASYNC splits each phase the same way — Looks off the
//     endpoints record both edges present, Computes whose pending view
//     has both edges take the branchless Compute half, untouched Moves the
//     Move half — and its dense rows run the same pass per bit.  SSYNC and
//     ASYNC split only ranges of 32 lanes or more: below that their
//     per-bit passes over the acting robots cost less.
//   * SSYNC activation masks and ASYNC advance/move masks are robot-major
//     uint64 WORD planes (bit = replica).  Each replica's Activation is
//     one of three rules — full, round-robin, Bernoulli-p (ActivationKind,
//     enum-dispatched like KernelId) — copied into per-lane planes at
//     construction: one pass fills every replica's mask words from a
//     per-replica RNG plane seeded with the activation's own generator,
//     draw for draw what Activation::fill draws (one vector of Bernoulli
//     lanes' streams steps per draw).  The per-bit SSYNC / ASYNC
//     passes then iterate mask words (ctz over set bits) instead of
//     testing every (robot, replica) byte.
//   * Configuration mirrors are materialized LAZILY: only replicas whose
//     adversary sees gamma through the virtual call (adaptive-missing, the
//     cage and proof adversaries, the SSYNC / ASYNC blockers) carry one;
//     schedule, Bernoulli and greedy-blocker lanes skip the per-round
//     mirror refresh, and a batch without mirrors skips the call.  The
//     virtual call gets the lane's mask column: every robot under FSYNC,
//     the actors under SSYNC, the firing Moves under ASYNC.
//   * the round-end counters (moves, tower rounds, tower formations) live
//     in lane planes, updated branch-free each round; EngineStats takes
//     them once per epoch (and before a cycle tracker reads them).
//   * replicas that reach their horizon are compacted out (their lane is
//     swapped with the last live lane), so the inner loops always run over
//     a dense prefix of live replicas and a ragged batch never idles.
//
// Results are BIT-IDENTICAL to B independent Engine runs: per-replica
// adversaries and activations consume the same streams in the same order
// as a solo run (batched Bernoulli kernels replay the activation's RNG
// stream draw-for-draw), and tests/batch_engine_test.cpp
// steps batches in lock-step with solo Engines and pins every replica's
// configuration each round, plus stats and coverage, across every registry
// kernel x {FSYNC, SSYNC, ASYNC} x schedule-backed and adaptive adversaries
// x seeds, including ragged horizons.  The batch records no trace: runs
// that need one (scenario analyses, rendering) use the solo Engine.
#pragma once

#include <limits>
#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/coverage.hpp"
#include "common/types.hpp"
#include "engine/activation.hpp"
#include "engine/engine.hpp"
#include "engine/topology.hpp"
#include "robot/algorithm.hpp"
#include "robot/kernel.hpp"
#include "robot/robot.hpp"

namespace pef {

/// One replica of the batch: the same scenario shape as one Engine run.
/// Every replica must share the ring, the robot count and the algorithm's
/// KernelId; seeds, placements, adversary draws and horizons may differ.
struct BatchReplica {
  /// Must provide a kernel (Algorithm::kernel()); every registry algorithm
  /// does.  The KernelSpec may differ per replica (per-seed random-walk
  /// streams), the KernelId may not.
  AlgorithmPtr algorithm;

  /// The per-replica edge adversary (sees the activation mask: full under
  /// FSYNC, the actors under SSYNC, the moving robots under ASYNC).
  AdversaryPtr adversary;
  /// Who acts each round; its model must be the batch's (FSYNC keeps the
  /// default).  SSYNC: the L-C-M subset; ASYNC: the robots that advance a
  /// phase.
  Activation activation;

  std::vector<RobotPlacement> placements;

  /// Rounds (FSYNC/SSYNC) or ticks (ASYNC) this replica runs before it is
  /// compacted out of the batch.  Horizons may differ across replicas.
  Time horizon = 0;
};

/// Wire `replica`'s adversary and activation the way every FSYNC-battery
/// entry point does it (SweepRunner, pef_run --batch): the adversary as it
/// is, under the model's standard_activation, so batched and solo runs of
/// the same (model, seed) see identical streams.
void wire_standard_replica(BatchReplica& replica, ExecutionModel model,
                           AdversaryPtr adversary, double activation_p,
                           std::uint64_t seed);

/// Whether a replica horizon fits the 32-bit visit stamps of a batch lane.
/// Seed groups with longer horizons run on solo Engines instead (the
/// callers of plan_batch check this before batching).
[[nodiscard]] constexpr bool batch_horizon_fits(Time horizon) {
  return horizon < std::numeric_limits<std::uint32_t>::max();
}

struct BatchEngineOptions {
  /// Intra-cell worker threads: the replica axis is split into 64-lane
  /// blocks and the hot phases (activation fill, fused pass, multiplicity
  /// recompute, visit bookkeeping) run block ranges on a pinned
  /// WorkerTeam.  Every parallel section writes only lane-indexed state,
  /// so results (stats, coverage) are bit-identical to threads == 1 at any
  /// thread count.
  /// 0 = one thread per physical core; 1 (default) = serial.
  std::uint32_t threads = 1;

  /// Per-lane cycle detection + exact stat extrapolation (see cycle.hpp
  /// and Engine's option of the same name).  A lane that proves a cycle
  /// has its horizon shrunk to the final partial period and retires into
  /// the existing ragged-horizon compaction; ineligible lanes (Bernoulli
  /// activation, adaptive adversaries) run to their full horizon.
  /// Per-replica results are bit-identical either way.
  FastForwardOptions fast_forward;
};

// ---------------------------------------------------------------------------
// Adaptive batch sizing
//
// The batch only wins once enough replicas amortize its round overheads
// (mask/multiplicity plane passes, the wider working set); below that the
// solo Engine's occupancy histogram is strictly cheaper.  The break-even
// point and the preferred width were calibrated from BENCH_scaling's
// batch_throughput series; callers
// (SweepRunner, pef_run --batch auto) route through plan_batch so the
// B=1..small regime never regresses against solo Engines.

/// The smallest replica count at which a BatchEngine beats `B` solo Engine
/// runs of the same scenario (>= 2 always: one replica is never batched).
/// The calibrated knee is the same for every model and ring size; only a
/// huge robot count moves it.
[[nodiscard]] std::uint32_t batch_break_even(ExecutionModel model,
                                             std::uint32_t n, std::uint32_t k);

/// The calibrated sweet-spot batch width for one scenario: wide enough to
/// saturate the replica-stride SIMD passes, capped where the lane-major
/// visit rows would outgrow the cache budget (large n narrows the batch).
[[nodiscard]] std::uint32_t preferred_batch_width(ExecutionModel model,
                                                  std::uint32_t n,
                                                  std::uint32_t k);

/// How to run `seeds` same-scenario replicas.  width == 1 means "run solo
/// Engines"; width > 1 means "BatchEngine in chunks of width".
/// `max_batch` caps the width; 0 means adaptive (preferred width).  A cap
/// below break-even routes to solo Engines — the cap is a ceiling, not a
/// demand to batch at a losing width.
struct BatchPlan {
  std::uint32_t width = 1;
  [[nodiscard]] bool use_batch() const { return width > 1; }
};
[[nodiscard]] BatchPlan plan_batch(ExecutionModel model, std::uint32_t n,
                                   std::uint32_t k, std::uint64_t seeds,
                                   std::uint32_t max_batch);

class BatchEngine {
 public:
  BatchEngine(Ring ring, ExecutionModel model,
              std::vector<BatchReplica> replicas,
              BatchEngineOptions options = {});

  /// One lock-step round (FSYNC/SSYNC) or tick (ASYNC) of every unfinished
  /// replica, then compaction of replicas that reached their horizon.
  void step();

  /// Run until every replica reaches its horizon.
  void run_all();

  [[nodiscard]] ExecutionModel model() const { return model_; }
  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] std::uint32_t replica_count() const { return batch_; }
  /// Replicas that have not yet reached their horizon.
  [[nodiscard]] std::uint32_t active_replicas() const { return active_; }
  [[nodiscard]] std::uint32_t robot_count() const { return robots_; }
  /// Rounds/ticks advanced so far (== every live replica's local time).
  [[nodiscard]] Time now() const { return now_; }

  // Per-replica results, indexed by construction order (stable across
  // internal lane compaction).
  [[nodiscard]] const EngineStats& stats(std::uint32_t replica) const;
  [[nodiscard]] CoverageReport coverage_report(std::uint32_t replica,
                                               Time suffix_window = 0) const;
  /// Rows with at most this many absent edges take the split passes (see
  /// the header comment); A = 2 covers t-interval, eventual-missing and a
  /// chain (one edge each) and a chain under t-interval or a cage (two).
  static constexpr std::uint32_t kSparseAbsent = 2;

  /// Fast-forward telemetry, per replica (see Engine::fast_forwarded).
  [[nodiscard]] bool fast_forwarded(std::uint32_t replica) const;
  [[nodiscard]] Time rounds_simulated(std::uint32_t replica) const;
  [[nodiscard]] Time detected_period(std::uint32_t replica) const;
  [[nodiscard]] NodeId robot_node(std::uint32_t replica, RobotId r) const;
  [[nodiscard]] Configuration snapshot(std::uint32_t replica) const;

 private:
  void init_replica(std::uint32_t lane, BatchReplica& replica);
  /// ONE round of lanes [l0, l1) at time t — edge refill, pass, boundary
  /// bookkeeping (multiplicity, visits, mirrors, round stats), touching no
  /// state outside the lane range.  This is the unit step(), the tiled
  /// run_all and the threaded slices all compose.
  template <KernelId Id>
  void fsync_round(std::uint32_t l0, std::uint32_t l1, Time t);
  template <KernelId Id>
  void ssync_round(std::uint32_t l0, std::uint32_t l1, Time t);
  template <KernelId Id>
  void async_round(std::uint32_t l0, std::uint32_t l1, Time t);
  /// Split the live lanes [0, active_) into slices of whole 64-lane blocks
  /// (one slice per team slot) and run fn(l0, l1) on each — on the worker
  /// team when options_.threads > 1, inline otherwise.  64-lane
  /// granularity keeps every plane write word- and cache-line-disjoint
  /// across slices (mask words hold 64 lane bits; 64 byte-plane lanes are
  /// one cache line), so fn needs no synchronization.
  template <typename Fn>
  void parallel_lane_slices(Fn&& fn);
  /// Run one fused Look+Compute+Move pass body over lanes [l0, l1): `Pass`
  /// is one of the free pass bodies of batch_engine.cpp (FSYNC all-full or
  /// generic, the split pass, the ASYNC pass), handed the planes' raw
  /// pointers and run on the active ISA tier.
  template <typename Pass>
  void run_pass(std::uint32_t l0, std::uint32_t l1);
  /// E_t for lanes [l0, l1) at time t, by each lane's EdgeSource:
  /// schedule-backed lanes refill their edge row in place once t reaches
  /// refill_at_ (listed lanes patch it), Bernoulli lanes draw the edges
  /// beside their robots (draw_bernoulli_rows), greedy-blocker lanes apply
  /// the rule to the planes (block_row), and mirror-path lanes go through
  /// the virtual adversary every round (reading only their own lane's
  /// gamma mirror and mask column, which is full under FSYNC).  Every
  /// refilled row is noted.
  void refill_edges(std::uint32_t l0, std::uint32_t l1, Time t);
  /// The Bernoulli lanes of [l0, l1) at round t: each row reset to every
  /// edge present, then the draws of the two edges beside each robot, and
  /// absent_ full or dense, one vector of lanes per draw.
  void draw_bernoulli_rows(std::uint32_t l0, std::uint32_t l1, Time t);
  /// Greedy-blocker lane `lane` at round t: restore last round's removals,
  /// then greedy_block over the lane's robots, its absence-run row and its
  /// removal lists.
  void block_row(std::uint32_t lane, Time t);
  /// One scan of `lane`'s edge row: its absent count (capped at
  /// kSparseAbsent + 1, "dense") and, for a sparse row of a batch that can
  /// split, both endpoints of each absent edge in the lane's column of
  /// absent_ends_.
  void note_absent(std::uint32_t lane);
  /// A listed lane at round t: set the bits of the edges its endpoint
  /// slots list, clear those of the schedule's absent_edges(t), and list
  /// these in absent_ and absent_ends_ (in every model and width).
  void patch_row(std::uint32_t lane, Time t);
  /// `count` <= kSparseAbsent absent edges of `lane`'s row into its
  /// absent_ends_ slots, both endpoints each, the unused slots at n.
  void list_ends(std::uint32_t lane, const EdgeId* gone, std::uint32_t count);
  /// The densest row of [l0, l1): the largest absent_ count.
  [[nodiscard]] std::uint8_t max_absent(std::uint32_t l0,
                                        std::uint32_t l1) const;
  /// Fill the touched words of [l0, l1), a range whose densest row misses
  /// `absent` <= kSparseAbsent edges (none touched when it is 0).
  void note_touched(std::uint32_t l0, std::uint32_t l1, std::uint8_t absent);

  /// Lane `lane`'s row of the contiguous edge-word plane.
  [[nodiscard]] std::uint64_t* edge_row(std::uint32_t lane) {
    return edge_plane_.data() + std::size_t{lane} * edge_words_per_row_;
  }
  [[nodiscard]] const std::uint64_t* edge_row(std::uint32_t lane) const {
    return edge_plane_.data() + std::size_t{lane} * edge_words_per_row_;
  }

  /// The batched activation prologue shared by SSYNC and ASYNC: clear the
  /// mask word plane, then fill the bits of lanes [l0, l1) (a whole-word
  /// range) from the per-lane activation planes (full / round-robin /
  /// Bernoulli over the act_state_ planes, one vector of Bernoulli lanes
  /// per step).
  void fill_mask_words(std::uint32_t l0, std::uint32_t l1, Time t);
  /// fill_mask_words for the one full or round-robin lane `lane`.
  void fill_lane_mask(std::uint32_t lane, Time t);
  /// ASYNC: moving = advancing AND (phase == Move), word columns [l0, l1).
  void fill_moving_words(std::uint32_t l0, std::uint32_t l1);
  /// Lane `lane`'s column of a mask word plane as a 0/1 byte mask (the
  /// virtual-adversary path still speaks ActivationMask).
  void extract_lane_mask(const std::uint64_t* plane, std::uint32_t lane,
                         ActivationMask& out) const;

  /// Recompute the multiplicity byte plane and per-lane tower flags of
  /// lanes [l0, l1) from the node planes (replica-wide compares, or the
  /// stamp path for small batches / large robot counts), at every
  /// boundary of every model.  `boundary_t` is the configuration
  /// time: the stamp path derives its row epoch from it (strictly
  /// increasing per lane, so no shared counter and no cross-slice state).
  void recompute_multiplicity(std::uint32_t l0, std::uint32_t l1,
                              Time boundary_t);
  void recompute_multiplicity_stamped(std::uint32_t l0, std::uint32_t l1,
                                      Time boundary_t);
  /// Visit/cover bookkeeping for every robot of lanes [l0, l1) at config
  /// time `t` (the batched equivalent of Engine::observe_boundary, minus
  /// the tower flags which recompute_multiplicity owns), one vector of
  /// lanes' cells per gather/scatter.
  void observe_boundary(Time t, std::uint32_t l0, std::uint32_t l1);
  /// Refresh the gamma mirrors of lanes [l0, l1) from the planes (dirs +
  /// positions).  Mirrors are lazy: only lanes whose adversary sees gamma
  /// carry one, everything else is skipped, and a batch without any
  /// returns at once.
  void update_mirrors(std::uint32_t l0, std::uint32_t l1);
  /// Per-lane end-of-round bookkeeping for lanes [l0, l1): branch-free
  /// updates of the tower-round and tower-formation planes from this
  /// boundary's tower flags.  stats_ takes them at fold_stats.
  void finish_round(std::uint32_t l0, std::uint32_t l1);
  /// stats_[lane]'s round, move and tower counters from the lane planes at
  /// the lane's boundary t.  Between folds those fields are stale: each
  /// epoch end (retire_finished, so after every step() and run_all())
  /// folds every live lane, and observe_cycles folds a due lane before its
  /// tracker reads them.
  void fold_stats(std::uint32_t lane, Time t);
  /// One CycleTracker per lane when some lane is eligible (called once at
  /// construction; cycles_ stays empty otherwise).
  void init_cycles();
  /// Feed the due trackers of lanes [l0, l1) at boundary t.  Lane-local
  /// state only, so it composes with tiles and worker slices.
  void observe_cycles(std::uint32_t l0, std::uint32_t l1, Time t);
  /// Pack lane state into its tracker's sample (layout: StateWords).
  void pack_lane(std::uint32_t lane, const StateWords& words) const;
  /// At an epoch boundary (under retire_finished, so no epoch span is in
  /// flight): extrapolate every armed lane's stats over the whole periods
  /// left before its horizon and shrink the horizon to the final partial
  /// period.  Visit `last` stamps stay in the lane's local (un-skipped)
  /// clock until retirement so the replay keeps exact gap bookkeeping.
  void apply_armed_cycles();
  /// At retirement of a fast-forwarded lane: shift rounds and the
  /// in-cycle visit stamps by the skipped span, landing on the stats of
  /// the full-horizon run.
  void finalize_cycle(std::uint32_t lane);
  /// Swap finished lanes out of the live prefix.
  void retire_finished();
  void swap_lanes(std::uint32_t a, std::uint32_t b);
  [[nodiscard]] Configuration snapshot_lane(std::uint32_t lane) const;

  Ring ring_;
  ExecutionModel model_ = ExecutionModel::kFsync;
  BatchEngineOptions options_;
  KernelId kernel_id_ = KernelId::kKeepDirection;
  std::uint32_t batch_ = 0;   // B: replica count == lane capacity
  std::uint32_t active_ = 0;  // live lanes are 0..active_-1
  std::uint32_t robots_ = 0;  // k
  std::uint32_t nodes_ = 0;   // n
  std::uint32_t edge_count_ = 0;
  Time now_ = 0;

  // Lane <-> replica maps (compaction permutes lanes, never replica ids).
  std::vector<std::uint32_t> replica_of_lane_;
  std::vector<std::uint32_t> lane_of_replica_;

  // Per-lane scenario objects.
  std::vector<AlgorithmPtr> algorithms_;
  std::vector<KernelSpec> specs_;
  std::vector<AdversaryPtr> adversaries_;
  /// Non-null iff the lane's edge sets are a pure function of time (an
  /// ObliviousAdversary, in any model): the lane's plane row is filled
  /// straight from the schedule, no EdgeSet, no mirror.
  std::vector<const EdgeSchedule*> schedules_;
  /// Lazy gamma mirrors: null for lanes nothing looks at.
  std::vector<std::unique_ptr<Configuration>> mirrors_;
  /// Some lane carries a mirror (monotone under retirement).
  bool mirror_lanes_ = false;
  std::vector<Time> horizons_;

  /// Where a lane's edge row comes from (edge_source_, one byte per lane).
  enum class EdgeSource : std::uint8_t {
    kSchedule,   // schedules_ refills the row at its next_change
    kListed,     // schedules_ lists the absent edges (absent_edges) at its
                 // next_change, and patch_row patches the row
    kBernoulli,  // the edges beside the robots, drawn every round
    kBlocker,    // greedy_block over the planes, every round
    kMirror,     // the virtual adversary on the gamma mirror
  };
  std::vector<std::uint8_t> edge_source_;

  // Intra-cell threading (options_.threads resolved against HwTopology at
  // construction): the team exists only when threads_ > 1 AND the batch is
  // wide enough to slice (>= 2 blocks of 64 lanes).
  std::uint32_t threads_ = 1;
  std::unique_ptr<WorkerTeam> team_;
  /// Replica-block tile width (a multiple of 64 lanes, chosen at
  /// construction so one tile's lane-major rows — visits, stamps — stay
  /// L2-resident).  The tiled run_all runs each tile through
  /// a whole epoch of rounds before moving to the next tile; lanes are
  /// fully independent simulations, so any round interleaving across lanes
  /// computes bit-identical per-lane results.
  std::uint32_t tile_lanes_ = 64;

  // Robot state planes, stride batch_ (robot-major, replica-minor), in
  // PlaneVectors: 64-byte-aligned rows for the SIMD passes, and the
  // multi-MB lane-major planes (visits_, stamps) get 2 MiB-aligned
  // MADV_HUGEPAGE regions — at B=256 those rows are walked by scattered
  // per-robot accesses and 4 KiB pages thrash the TLB (see topology.hpp).
  PlaneVector<NodeId> node_;
  PlaneVector<std::uint8_t> dir_;
  PlaneVector<std::uint8_t> right_cw_;
  PlaneVector<std::uint8_t> mult_;     // boundary multiplicity bits (0/1)
  // Kernel memory as per-FIELD planes (the batched form of KernelState):
  // keeping each field contiguous along the replica axis lets the fused
  // pass vectorize stateful kernels — pef3+'s has_moved flag is a byte
  // plane here instead of one byte strided across 48-byte structs.  The
  // rng plane is allocated only for random-walk batches (one dummy slot
  // otherwise).
  PlaneVector<Xoshiro256> krng_;
  PlaneVector<std::uint64_t> kcounter_;
  PlaneVector<std::uint8_t> khas_moved_;

  /// Visit bookkeeping of one (lane, node): one cache access per robot per
  /// boundary.  `last` is only meaningful when `count > 0`; 32 bits suffice
  /// because construction checks every horizon with batch_horizon_fits.
  /// The visit kernel moves a cell as one u64, count in the low half.
  struct VisitCell {
    std::uint32_t count = 0;
    std::uint32_t last = 0;
  };
  // Per-(lane, node) cells, lane-major rows of length nodes_.
  PlaneVector<VisitCell> visits_;
  /// First visits per lane of one boundary, folded into the stats after
  /// the visit kernel.  Lane-indexed, so worker slices write disjoint
  /// entries.
  std::vector<std::uint32_t> fresh_visits_;

  // The edge-word plane: lane l's row of edge_words_per_row_ words at
  // l * edge_words_per_row_ (EdgeSet::words() bit layout) holds E_t on
  // every edge beside one of the lane's robots; a Bernoulli row reads
  // "present" everywhere else, the other rows hold all of E_t.
  // Schedule-backed lanes are filled in place by edges_into_words,
  // Bernoulli and greedy-blocker lanes by the batch itself; mirror-path
  // lanes fill their per-lane EdgeSet scratch (edges_) through the virtual
  // adversary and copy the words over (a few words per round, dwarfed by
  // the adversary itself).
  std::uint32_t edge_words_per_row_ = 0;
  PlaneVector<std::uint64_t> edge_plane_;
  std::vector<EdgeSet> edges_;            // mirror-path scratch only
  /// Some lane draws Bernoulli rows (monotone under retirement).
  bool bernoulli_lanes_ = false;
  /// Bernoulli lanes: the schedule's key table and draw threshold
  /// (BernoulliSchedule::keys() / threshold()).
  std::vector<const std::uint64_t*> bernoulli_keys_;
  std::vector<std::uint64_t> bernoulli_threshold_;
  /// Greedy-blocker lanes, allocated when some lane is one: the blocker's
  /// max_absence, each edge's absence run (a lane-major row of edge_count_
  /// per lane; u32 suffices because no run outlasts a batch horizon), and
  /// two lists of robots_ slots per lane holding the edges removed at the
  /// last two rounds (the list of round t is the one at t & 1), with their
  /// counts at 2 * lane + (t & 1).
  std::vector<Time> block_max_;
  PlaneVector<std::uint32_t> block_run_;
  std::vector<EdgeId> block_absent_;
  std::vector<std::uint32_t> block_count_;
  /// Schedule-backed lanes: the round their row is next refilled (the
  /// schedule's next_change of the last fill; kTimeInfinity = never).
  std::vector<Time> refill_at_;
  /// Absent edges of each lane's row, 0..kSparseAbsent, or
  /// kSparseAbsent + 1 for a dense row (any model).  A Bernoulli row is 0
  /// or dense.
  std::vector<std::uint8_t> absent_;
  /// The endpoint nodes of a sparse row's absent edges: 2 * kSparseAbsent
  /// slot-major planes of batch_ nodes (slot j of lane l at j * batch_ + l),
  /// unused slots holding n.  An edge e joins nodes e and e + 1 mod n, so
  /// slot 2j holds the absent edge itself.  An SSYNC or ASYNC batch of
  /// fewer than 32 lanes never splits, so only its listed lanes list them:
  /// there they are the lane's current list, which patch_row restores.
  PlaneVector<NodeId> absent_ends_;
  // Per-lane counters, folded into stats_ by fold_stats: moves (written by
  // the passes), tower rounds and tower formations (finish_round).
  std::vector<std::uint64_t> moves_;
  std::vector<Time> tower_rounds_;
  std::vector<std::uint64_t> tower_formations_;
  std::vector<std::uint8_t> tower_flag_;  // some node holds >= 2 robots
  std::vector<std::uint8_t> prev_had_tower_;
  std::vector<Time> max_closed_gap_;
  std::vector<EngineStats> stats_;

  // Robot-major WORD planes: bit l of word (robot * lane_words_ + l / 64)
  // belongs to lane l.  The SSYNC activation / ASYNC advance masks
  // ("robot acts in lane l") and the touched words of a split pass ("robot
  // stands on an endpoint of one of lane l's absent edges") are
  // regenerated every round before use (never swapped on compaction).
  std::uint32_t lane_words_ = 0;
  PlaneVector<std::uint64_t> mask_words_;
  PlaneVector<std::uint64_t> touched_words_;
  /// ASYNC: advancing AND in-Move-phase (mask_words_ & move_words_, one
  /// word AND per robot-word) — what the edge adversary and the Move pass
  /// see.  Snapshotted before the tick's phase transitions.
  PlaneVector<std::uint64_t> moving_words_;

  // Each lane's Activation as planes (SSYNC and ASYNC alike): its
  // ActivationKind, the Bernoulli draw threshold (next() >> 11 below it ==
  // next_bool(p)) and its generator's four state words, a copy of each
  // activation's generator as four planes (word w of lane l at
  // w * act_stride_ + l).  The threshold and state planes are padded to
  // whole 64-lane words (act_stride_ lanes), so the activation kernel
  // loads whole vectors of lanes from them.
  std::vector<std::uint8_t> act_kind_;
  std::uint32_t act_stride_ = 0;
  PlaneVector<std::uint64_t> act_threshold_;
  PlaneVector<std::uint64_t> act_state_;

  // ASYNC phase machines as ONE-HOT word planes (same geometry as
  // mask_words_): a robot's phase is which plane holds its lane bit.
  // Membership tests are word ANDs against the advancing mask and the
  // L->C->C->M->M->L transitions are word ops on the matched bits — no
  // per-robot phase bytes, no data-dependent branches in the tick pass.
  PlaneVector<std::uint64_t> look_words_;
  PlaneVector<std::uint64_t> compute_words_;
  PlaneVector<std::uint64_t> move_words_;
  // ASYNC pending Look views, written by each Look and read by the Compute
  // that follows (and by the cycle tracker's packed state): edge-ahead and
  // edge-behind word planes (geometry of look_words_) and a multiplicity
  // byte plane (geometry of mult_).
  PlaneVector<std::uint64_t> pending_ahead_;
  PlaneVector<std::uint64_t> pending_behind_;
  PlaneVector<std::uint8_t> pending_mult_;

  /// False once every live lane's edge row is filled for good (all
  /// schedule-backed, none Bernoulli, all with next_change(0) ==
  /// kTimeInfinity): the per-round edge prologue is skipped entirely.
  /// Monotone under lane retirement.
  bool edge_refill_needed_ = true;

  // Multiplicity scratch.  The compare path accumulates per-robot node
  // occurrence counts in u32 rows (mult_scratch_); the stamp path — used
  // when the batch is too narrow or the robot count too large for O(k^2)
  // row compares to win — tags visited (lane, node) cells with an epoch
  // and counts occupants directly (stamp_epoch_ / stamp_count_, allocated
  // only when that path is selected at construction).
  bool stamped_mult_ = false;
  PlaneVector<std::uint32_t> stamp_epoch_;
  PlaneVector<std::uint32_t> stamp_count_;

  /// Per-lane fast-forward (see cycle.hpp): armed lanes apply at the next
  /// epoch boundary and retire after the remaining partial period.  Empty
  /// unless some lane is eligible, so plain batches pay nothing per round.
  std::vector<CycleTracker> cycles_;
};

}  // namespace pef

// Engine — the unified throughput execution core.
//
// One engine, three execution models (the paper's Section 1 taxonomy):
//
//   FSYNC - every robot runs an atomic Look-Compute-Move every round
//           (the paper's model; reference: scheduler/Simulator);
//   SSYNC - an Activation selects a subset each round, only selected
//           robots run L-C-M (reference: SsyncSimulator);
//   ASYNC - an Activation advances each robot through its own
//           Look / Compute / Move machine one phase per tick, with
//           possibly-stale views (reference: AsyncSimulator).
//
// Compute always runs the algorithm's devirtualized kernel
// (robot/kernel.hpp, algorithms/kernels.hpp): enum-dispatched compute over
// POD state held in one contiguous vector.  Every registry algorithm has
// one; the virtual Algorithm classes run only in the reference simulators,
// which stay the oracle.  Differential tests (tests/fast_engine_test.cpp
// and tests/unified_engine_test.cpp) pin every model to its reference
// simulator round-by-round, across the registry and adversary families, so
// the engine is a drop-in replacement — only faster:
//
//   * struct-of-arrays robot state: parallel vectors for node, local dir,
//     chirality and POD kernel memory;
//   * a per-node occupancy histogram maintained incrementally, making the
//     Look phase's multiplicity predicate O(1) per robot;
//   * one adversary interface in every model, and one rule for it: a
//     schedule-backed adversary (ObliviousAdversary) refills a reusable
//     EdgeSet scratch buffer in place (EdgeSchedule::edges_into) only at
//     the rounds its EdgeSchedule::next_change names; any other adversary
//     refills it every round through choose_edges_into, seeing the model's
//     activation mask (full under FSYNC) — zero allocation per round;
//   * one reusable activation mask: the Activation fills a persistent
//     byte buffer instead of returning a fresh vector<bool> per round;
//   * one persistent Configuration mirror, kept only for an adversary that
//     is not schedule-backed and refreshed in place (O(k) per round, in
//     every model), never a fresh snapshot per round;
//   * snapshot() / trace materialization only on demand — with trace
//     recording off, the engine keeps only O(n + k) state and a handful of
//     incrementally maintained aggregates;
//   * optional exact cycle fast-forward for long deterministic runs
//     (engine/cycle.hpp's CycleTracker, shared with BatchEngine).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/coverage.hpp"
#include "common/types.hpp"
#include "engine/activation.hpp"
#include "engine/cycle.hpp"
#include "robot/algorithm.hpp"
#include "robot/kernel.hpp"
#include "robot/robot.hpp"
#include "scheduler/trace.hpp"

namespace pef {

struct EngineOptions {
  /// Record a full Trace (positions, dirs, edge sets per round).  Off by
  /// default: the engine's niche is long timing sweeps; flip it on when the
  /// run feeds trace-based analysis (towers, legality audits, rendering).
  bool record_trace = false;

  /// Cycle detection + exact stat extrapolation for run().  Only engages on
  /// fully deterministic configurations (oblivious periodic edge schedule,
  /// full or round-robin activation, no trace; see CycleTracker); anything
  /// else silently runs the plain round loop.  Results are bit-identical
  /// either way.
  FastForwardOptions fast_forward;
};

/// Aggregates the engine maintains incrementally every round, so sweeps get
/// their metrics without recording a trace.  Visit semantics match
/// analyze_coverage(): configuration times 0..rounds, one visit per robot.
struct EngineStats {
  Time rounds = 0;
  std::uint64_t total_moves = 0;
  /// Configuration times (of rounds+1 many) at which some node held >= 2
  /// robots.
  Time tower_rounds = 0;
  /// Number of towered episodes: maximal runs of consecutive boundaries at
  /// which some tower existed (a transition from a towerless boundary to a
  /// towered one counts 1).  Coarser than analyze_towers'
  /// tower_formation_count, which tracks per-node / per-robot-set events —
  /// use a recorded trace when that granularity matters.
  std::uint64_t tower_formations = 0;
  std::uint32_t visited_node_count = 0;
  std::optional<Time> cover_time;
};

class Engine {
 public:
  /// Requires `algorithm` to provide a kernel (Algorithm::kernel());
  /// every registry algorithm does.
  ///
  /// The model is the one `activation.model` names.  FSYNC (the default
  /// Activation): every robot, every round, and the adversary sees the full
  /// mask.  SSYNC: the activation selects the L-C-M subset each round and
  /// the adversary sees it.  ASYNC: the activation advances per-robot
  /// Look/Compute/Move machines one phase per tick and the adversary sees
  /// the robots whose Move fires.
  Engine(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
         Activation activation, const std::vector<RobotPlacement>& placements,
         EngineOptions options = {});

  /// FSYNC.
  Engine(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
         const std::vector<RobotPlacement>& placements,
         EngineOptions options = {})
      : Engine(ring, std::move(algorithm), std::move(adversary), Activation{},
               placements, options) {}

  /// Execute one round (FSYNC/SSYNC) or one scheduler tick (ASYNC).
  void step();

  /// Execute `rounds` further rounds/ticks.
  void run(Time rounds);

  [[nodiscard]] ExecutionModel model() const { return model_; }

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] std::uint32_t robot_count() const {
    return static_cast<std::uint32_t>(node_.size());
  }

  [[nodiscard]] NodeId robot_node(RobotId r) const { return node_[r]; }
  [[nodiscard]] LocalDirection robot_dir(RobotId r) const {
    return static_cast<LocalDirection>(dir_[r]);
  }
  [[nodiscard]] Chirality robot_chirality(RobotId r) const {
    return Chirality(right_cw_[r] != 0);
  }
  /// Pending phase of robot `r` — ASYNC only.
  [[nodiscard]] Phase phase_of(RobotId r) const;

  /// Robots currently on node `u` — O(1) from the occupancy histogram.
  [[nodiscard]] std::uint32_t robots_on(NodeId u) const { return occ_[u]; }

  /// Materialize the current configuration (the gamma at the start of the
  /// next round).  On-demand: costs O(k), the hot loop never calls it.
  [[nodiscard]] Configuration snapshot() const;

  /// Incrementally maintained aggregates (always available).
  [[nodiscard]] const EngineStats& stats() const { return stats_; }

  /// Fast-forward telemetry of the latest run().  rounds_simulated() is the
  /// number of rounds actually executed (== stats().rounds unless a cycle
  /// was skipped); detected_period() is 0 when no cycle engaged.
  [[nodiscard]] bool fast_forwarded() const { return cycle_.skipped() > 0; }
  [[nodiscard]] Time rounds_simulated() const {
    return stats_.rounds - cycle_.skipped();
  }
  [[nodiscard]] Time detected_period() const {
    return cycle_.detected_period();
  }
  /// Hash hits rejected by the exact state comparison (collision audit).
  [[nodiscard]] std::uint64_t ff_collisions() const {
    return cycle_.collisions();
  }

  /// Coverage report equivalent to analyze_coverage(trace) but computed from
  /// the incremental per-node bookkeeping — available without a trace.
  [[nodiscard]] CoverageReport coverage_report(Time suffix_window = 0) const;

  /// Only valid when options.record_trace was set.
  [[nodiscard]] const Trace& trace() const { return *trace_; }
  [[nodiscard]] bool recording_trace() const { return trace_ != nullptr; }

 private:
  void init(const std::vector<RobotPlacement>& placements);
  void observe_boundary(Time t);  // visit/tower bookkeeping at config time t
  /// Feed cycle_ at its due boundary now_ of a run ending at `target`;
  /// when the tracker arms, apply the skip at once.  Returns true iff the
  /// clock jumped.
  bool advance_cycle(Time target);
  /// E_t into edges_: a schedule-backed adversary refills it once now_
  /// reaches refill_at_, any other adversary every round, seeing the gamma
  /// mirror and `activated`.
  void refill_edges(const ActivationMask& activated);
  /// Copy every robot's dir and node into the gamma mirror (which must
  /// equal the configuration at the start of the next round).
  void refresh_mirror();
  /// The step_* entry points dispatch ONCE per round on the kernel id, and
  /// ONLY the fused Look+Compute loops are instantiated per kernel, so the
  /// kernel's compute inlines into the loop body (no per-robot branch or
  /// indirect call).  Everything else — mask compaction, Move, trace
  /// records, the gamma mirror — is shared non-templated code, so each
  /// kernel instantiation stays a few cache lines instead of a whole round
  /// loop.
  void step_fsync();
  void step_ssync();
  void step_async();
  /// Fused Look+Compute over every robot (FSYNC).  ComputeFn is the
  /// per-KernelId functor of engine.cpp.
  template <typename ComputeFn>
  void look_compute_all(const ComputeFn& compute_fn);
  /// Fused Look+Compute over a compacted index list (SSYNC activated set).
  template <typename ComputeFn>
  void look_compute_list(const ComputeFn& compute_fn,
                         const std::vector<std::uint32_t>& idx);
  /// Compute over pending Look views for a compacted index list (ASYNC
  /// Compute phases); advances each robot's phase machine to Move.
  template <typename ComputeFn>
  void compute_pending_list(const ComputeFn& compute_fn,
                            const std::vector<std::uint32_t>& idx);

  /// Robot `i`'s chirality-resolved geometry at its current node/dir: the
  /// single source of the ahead/behind edge mapping every Look and Move
  /// block shares (ahead == the pointed edge).
  struct RobotFrame {
    NodeId node;
    bool ahead_cw;
    EdgeId ahead;
    EdgeId behind;
  };
  [[nodiscard]] RobotFrame frame_of(RobotId i) const;
  /// The Look-phase snapshot of robot `i` against the current E_t and
  /// occupancy.
  [[nodiscard]] View look(const RobotFrame& frame) const;
  /// Apply the Move phase for robot `i`: cross `pointed` if present,
  /// keeping occupancy, stats and the gamma mirror consistent.  Returns
  /// whether the robot moved.
  bool apply_move(RobotId i, bool ahead_cw, EdgeId pointed);

  Ring ring_;
  KernelSpec kernel_;
  ExecutionModel model_ = ExecutionModel::kFsync;
  EngineOptions options_;
  Time now_ = 0;

  AdversaryPtr adversary_;
  Activation activation_;  // FSYNC: the default, full

  // Struct-of-arrays robot state.
  std::vector<NodeId> node_;
  std::vector<std::uint8_t> dir_;       // LocalDirection
  std::vector<std::uint8_t> right_cw_;  // Chirality::right_is_clockwise
  std::vector<KernelState> kstates_;    // algorithm memory

  // ASYNC phase machines + pending Look views.
  std::vector<Phase> phases_;
  std::vector<View> pending_views_;

  // Occupancy histogram + number of nodes currently holding >= 2 robots.
  std::vector<std::uint32_t> occ_;
  std::uint32_t multi_nodes_ = 0;
  bool prev_had_tower_ = false;

  // Reused per-round scratch.
  EdgeSet edges_;          // E_t
  ActivationMask mask_;    // FSYNC: full, set once; SSYNC activation /
                           // ASYNC advancing, filled each round
  ActivationMask moving_;  // ASYNC: Move phases firing this tick
  // Compacted per-round index lists (built once per round from the masks so
  // the hot loops iterate dense indices instead of branching per robot).
  std::vector<std::uint32_t> active_list_;   // SSYNC: activated robots
  std::vector<std::uint32_t> look_list_;     // ASYNC: Look phases firing
  std::vector<std::uint32_t> compute_list_;  // ASYNC: Compute phases firing
  std::vector<std::uint32_t> move_list_;     // ASYNC: Move phases firing

  // Schedule-backed fast path, in every model: when the adversary is an
  // ObliviousAdversary we call the schedule's in-place fill directly and
  // keep no gamma_mirror_, and only from round refill_at_ on (the
  // schedule's next_change of the last fill; E_t holds until then).
  const EdgeSchedule* schedule_ = nullptr;
  Time refill_at_ = 0;
  // Persistent configuration mirror: every other adversary sees gamma each
  // round.
  std::unique_ptr<Configuration> gamma_mirror_;

  // Incremental coverage bookkeeping (analyze_coverage semantics).
  std::vector<std::uint64_t> visit_counts_;
  std::vector<Time> last_visit_;
  std::vector<std::uint8_t> visited_;
  Time max_closed_gap_ = 0;
  EngineStats stats_;

  // The latest run()'s fast-forward (see cycle.hpp).
  CycleTracker cycle_;

  std::unique_ptr<Trace> trace_;
};

/// One seeded run wired the way every FSYNC-battery entry point wires it
/// (run_experiment, SweepRunner, pef_run): the adversary as it is, under
/// the model's standard_activation (FSYNC: full; SSYNC/ASYNC: seeded
/// Bernoulli).  The solo counterpart of wire_standard_replica
/// (engine/batch_engine.hpp), so solo and batched runs of the same
/// (model, seed) see identical streams.
[[nodiscard]] Engine make_standard_engine(
    Ring ring, ExecutionModel model, AlgorithmPtr algorithm,
    AdversaryPtr adversary, const std::vector<RobotPlacement>& placements,
    double activation_p, std::uint64_t seed, EngineOptions options = {});

}  // namespace pef

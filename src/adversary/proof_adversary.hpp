// The staged lower-bound adversaries of Theorems 4.1 and 5.1, as adaptive
// state machines (the executable counterpart of Figures 2 and 3).
//
// The proofs confine k robots (k = 1 or 2) to a window of k+1 consecutive
// nodes {u, (v,) w} by an inductive surgery: at each *stage*, every
// non-designated robot is frozen (both its adjacent edges removed) and the
// designated robot is left with exactly one present adjacent edge pointing
// inward — the OneEdge(x, t_i, t'_i) situation of the paper.  Two outcomes:
//
//  * the designated robot eventually crosses its present edge (this is what
//    Lemma 4.1 / 5.1 guarantees for any *correct* algorithm): the stage
//    ends, the removal intervals close (finite), and the next stage begins.
//    Stages rotate exactly as in the paper's Items 1-8: with 2 robots the
//    designation switches whenever the designated robot lands on a window
//    boundary node, reproducing the (r2: v->w), (r1: u->v), (r1: v->u),
//    (r2: w->v) cycle; with 1 robot the single robot shuttles u <-> v.
//    The realized evolving graph has only finite, disjoint absence
//    intervals — it is connected-over-time — yet only k+1 < n nodes are
//    ever visited: a legal witness against the algorithm.
//
//  * the designated robot *camps*: it refuses to leave for `patience`
//    rounds, i.e. the algorithm violates the Lemma 4.1 / 5.1 departure
//    property.  The adversary then switches to *terminal mode*: it keeps
//    removing only the single edge the camper points at (which must be its
//    absent adjacent edge — a robot pointing at a present edge would have
//    moved) and restores everything else forever.  The realized graph has
//    exactly one eventually-missing edge — legal (a ring minus one edge is
//    a connected chain) — and the bench then verifies that coverage still
//    starves.  This mirrors the proof's dichotomy: an algorithm whose robot
//    waits forever under OneEdge is defeated by a single eventual missing
//    edge.
//
// The adversary logs every stage so benches can print the per-stage rows of
// Figures 2/3 (removed edge sets, durations, robot motion).
#pragma once

#include <optional>
#include <vector>

#include "adversary/adversary.hpp"

namespace pef {

class StagedProofAdversary final : public Adversary {
 public:
  struct StageRecord {
    Time start = 0;
    Time end = 0;  // round at whose start the designated robot had moved
    RobotId designated = 0;
    NodeId from = 0;
    NodeId to = 0;
    std::vector<EdgeId> removed_edges;  // the stage's removal set
  };

  /// Window = nodes {anchor, ..., anchor + width - 1} (clockwise).
  /// `width` must be robot_count + 1 and < n.  `patience` is the camping
  /// threshold (rounds a designated robot may hold still before the
  /// adversary concludes it camps forever and goes terminal).
  StagedProofAdversary(Ring ring, NodeId anchor, std::uint32_t width,
                       Time patience);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask& activated,
                         EdgeSet& out) override;
  [[nodiscard]] std::string name() const override;

  // --- Reporting ----------------------------------------------------------

  [[nodiscard]] bool in_terminal_mode() const { return terminal_.has_value(); }
  [[nodiscard]] std::optional<EdgeId> terminal_edge() const {
    return terminal_;
  }
  [[nodiscard]] const std::vector<StageRecord>& stage_log() const {
    return stages_;
  }
  [[nodiscard]] std::size_t stages_completed() const { return stages_.size(); }

  [[nodiscard]] bool in_window(NodeId u) const;
  [[nodiscard]] EdgeId left_boundary_edge() const;
  [[nodiscard]] EdgeId right_boundary_edge() const;

 private:
  [[nodiscard]] std::uint32_t offset_of(NodeId u) const;
  [[nodiscard]] NodeId window_node(std::uint32_t offset) const;
  [[nodiscard]] bool is_boundary(NodeId u) const;
  void begin_stage(Time t, RobotId designated, const Configuration& gamma,
                   EdgeSet& out);
  void assemble_edges(const Configuration& gamma, EdgeSet& out) const;

  Ring ring_;
  NodeId anchor_;
  std::uint32_t width_;
  Time patience_;

  bool initialised_ = false;
  RobotId designated_ = 0;
  Time stage_start_ = 0;
  NodeId stage_start_node_ = 0;
  std::vector<EdgeId> stage_removed_;  // removal set of the current stage
  std::vector<StageRecord> stages_;
  std::optional<EdgeId> terminal_;
};

}  // namespace pef

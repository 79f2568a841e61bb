#include "adversary/proof_adversary.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace pef {

StagedProofAdversary::StagedProofAdversary(Ring ring, NodeId anchor,
                                           std::uint32_t width, Time patience)
    : ring_(ring), anchor_(anchor), width_(width), patience_(patience) {
  PEF_CHECK(ring_.is_valid_node(anchor));
  PEF_CHECK(width >= 2);
  PEF_CHECK(width < ring_.node_count());
  PEF_CHECK(patience >= 1);
}

std::uint32_t StagedProofAdversary::offset_of(NodeId u) const {
  return (u + ring_.node_count() - anchor_) % ring_.node_count();
}

NodeId StagedProofAdversary::window_node(std::uint32_t offset) const {
  return (anchor_ + offset) % ring_.node_count();
}

bool StagedProofAdversary::in_window(NodeId u) const {
  return offset_of(u) < width_;
}

bool StagedProofAdversary::is_boundary(NodeId u) const {
  const std::uint32_t o = offset_of(u);
  return o == 0 || o == width_ - 1;
}

EdgeId StagedProofAdversary::left_boundary_edge() const {
  return ring_.adjacent_edge(anchor_, GlobalDirection::kCounterClockwise);
}

EdgeId StagedProofAdversary::right_boundary_edge() const {
  return ring_.adjacent_edge(window_node(width_ - 1),
                             GlobalDirection::kClockwise);
}

void StagedProofAdversary::begin_stage(Time t, RobotId designated,
                                       const Configuration& gamma,
                                       EdgeSet& out) {
  designated_ = designated;
  stage_start_ = t;
  stage_start_node_ = gamma.robot(designated).node;
  // Assemble the stage's present set into `out` and log its removal set
  // (the complement).
  assemble_edges(gamma, out);
  stage_removed_.clear();
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (!out.contains(e)) stage_removed_.push_back(e);
  }
}

void StagedProofAdversary::assemble_edges(const Configuration& gamma,
                                          EdgeSet& out) const {
  out.fill();

  // Freeze every non-designated robot: both its adjacent edges removed
  // (this reproduces the paper's per-stage removal sets, e.g.
  // {e_ul, e_wl, e_wr} in Item 3 of Theorem 4.1).
  for (RobotId r = 0; r < gamma.robot_count(); ++r) {
    if (r == designated_) continue;
    const NodeId x = gamma.robot(r).node;
    out.erase(ring_.adjacent_edge(x, GlobalDirection::kClockwise));
    out.erase(ring_.adjacent_edge(x, GlobalDirection::kCounterClockwise));
  }

  // The designated robot keeps one inward edge (OneEdge): standing on a
  // window boundary node, its outward edge is removed; standing mid-window,
  // the edge towards the adjacent frozen robot is already gone and the
  // away edge stays present.
  const NodeId x = gamma.robot(designated_).node;
  const std::uint32_t o = offset_of(x);
  if (o == 0) out.erase(left_boundary_edge());
  if (o == width_ - 1) out.erase(right_boundary_edge());
}

void StagedProofAdversary::choose_edges_into(Time t,
                                             const Configuration& gamma,
                                             const ActivationMask&,
                                             EdgeSet& out) {
  PEF_CHECK(gamma.robot_count() >= 1);

  // Terminal mode: exactly one eventually-missing edge, everything else
  // present forever (a legal connected-over-time suffix).  Robots may roam
  // the whole chain in this mode.
  if (terminal_) {
    out.fill();
    out.erase(*terminal_);
    return;
  }

  for (const RobotSnapshot& r : gamma.robots()) {
    PEF_CHECK_MSG(in_window(r.node),
                  "robot escaped the proof window (impossible)");
  }

  // Tower fallback: with colocated robots the freeze/designate geometry is
  // ill-defined; fall back to the plain cage for this round (remove a
  // boundary edge iff its inner endpoint is occupied) and restart the stage
  // clock once the tower breaks.
  if (gamma.has_tower()) {
    initialised_ = false;
    out.fill();
    for (const RobotSnapshot& r : gamma.robots()) {
      if (r.node == anchor_) out.erase(left_boundary_edge());
      if (r.node == window_node(width_ - 1)) out.erase(right_boundary_edge());
    }
    return;
  }

  if (!initialised_) {
    // Initial designation: prefer a robot standing mid-window (the proof's
    // first stage designates r2 standing on v); fall back to robot 0.
    RobotId designated = 0;
    for (RobotId r = 0; r < gamma.robot_count(); ++r) {
      if (!is_boundary(gamma.robot(r).node)) {
        designated = r;
        break;
      }
    }
    begin_stage(t, designated, gamma, out);
    initialised_ = true;
    return;
  }

  const NodeId pos = gamma.robot(designated_).node;
  if (pos != stage_start_node_) {
    // Stage completed: the designated robot crossed its single present edge.
    stages_.push_back(StageRecord{stage_start_, t, designated_,
                                  stage_start_node_, pos, stage_removed_});
    RobotId next = designated_;
    if (is_boundary(pos) && gamma.robot_count() >= 2) {
      // Designation switches at window boundaries (the paper's rotation).
      next = (designated_ + 1) % gamma.robot_count();
    }
    begin_stage(t, next, gamma, out);
    return;
  }

  if (t - stage_start_ >= patience_) {
    // Camping: the algorithm violates the Lemma 4.1 / 5.1 departure
    // property.  Keep only the edge the camper points at missing, forever.
    // (A robot pointing at a present edge would have moved, so the pointed
    // edge is one of the removed ones.)
    const RobotSnapshot& camper = gamma.robot(designated_);
    const EdgeId pointed =
        ring_.adjacent_edge(camper.node, camper.considered_direction());
    terminal_ = pointed;
    out.fill();
    out.erase(*terminal_);
    return;
  }

  assemble_edges(gamma, out);
}

std::string StagedProofAdversary::name() const {
  return width_ == 2 ? "proof-thm51" : "proof-thm41(w=" +
         std::to_string(width_) + ")";
}

}  // namespace pef

#include "adversary/confinement.hpp"

#include "common/check.hpp"

namespace pef {

ConfinementAdversary::ConfinementAdversary(Ring ring, NodeId anchor,
                                           std::uint32_t width)
    : ring_(ring), anchor_(anchor), width_(width) {
  PEF_CHECK(ring_.is_valid_node(anchor));
  PEF_CHECK(width >= 2);
  PEF_CHECK(width < ring_.node_count());
}

bool ConfinementAdversary::in_window(NodeId u) const {
  const std::uint32_t offset =
      (u + ring_.node_count() - anchor_) % ring_.node_count();
  return offset < width_;
}

EdgeId ConfinementAdversary::left_boundary_edge() const {
  return ring_.adjacent_edge(anchor_, GlobalDirection::kCounterClockwise);
}

EdgeId ConfinementAdversary::right_boundary_edge() const {
  return ring_.adjacent_edge(window_node(width_ - 1),
                             GlobalDirection::kClockwise);
}

void ConfinementAdversary::choose_edges_into(Time, const Configuration& gamma,
                                             const ActivationMask&,
                                             EdgeSet& out) {
  out.fill();
  const NodeId left_node = anchor_;
  const NodeId right_node = window_node(width_ - 1);
  for (const RobotSnapshot& r : gamma.robots()) {
    PEF_CHECK_MSG(in_window(r.node),
                  "robot escaped the confinement window (impossible)");
    if (r.node == left_node) out.erase(left_boundary_edge());
    if (r.node == right_node) out.erase(right_boundary_edge());
  }
}

std::string ConfinementAdversary::name() const {
  return "cage(w=" + std::to_string(width_) + ")";
}

}  // namespace pef

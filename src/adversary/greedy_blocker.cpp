#include "adversary/greedy_blocker.hpp"

#include "common/check.hpp"

namespace pef {

GreedyBlockerAdversary::GreedyBlockerAdversary(Ring ring, Time max_absence)
    : ring_(ring),
      max_absence_(max_absence),
      absence_run_(ring.edge_count(), 0) {
  PEF_CHECK(max_absence >= 1);
}

void GreedyBlockerAdversary::choose_edges_into(Time,
                                               const Configuration& gamma,
                                               const ActivationMask&,
                                               EdgeSet& out) {
  // Runs every round of an adaptive cell, so it indexes the edge words and
  // runs directly: robots stand on ring nodes, so Ring::adjacent_edge's
  // node check and EdgeSet's edge checks cannot fire here.  Only edges
  // absent last round have nonzero runs, so the rule touches those and this
  // round's removals, at most one edge per robot, instead of all n.
  const std::uint32_t n = ring_.edge_count();
  const std::vector<RobotSnapshot>& robots = gamma.robots();
  out.fill();
  absent_.swap(previously_absent_);
  absent_.clear();
  greedy_block(
      static_cast<std::uint32_t>(robots.size()),
      [&](std::uint32_t i) {
        const RobotSnapshot& r = robots[i];
        return r.considered_direction() == GlobalDirection::kClockwise
                   ? r.node
                   : (r.node == 0 ? n - 1 : r.node - 1);
      },
      max_absence_, out.mutable_words(), absence_run_.data(),
      previously_absent_.data(), previously_absent_.size(),
      [this](EdgeId e) { absent_.push_back(e); });
}

std::string GreedyBlockerAdversary::name() const {
  return "greedy-blocker(A=" + std::to_string(max_absence_) + ")";
}

}  // namespace pef

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
                                               EdgeSet& out) {
  // Runs every round of an adaptive cell, so it indexes the edge words and
  // runs directly: robots stand on ring nodes, so Ring::adjacent_edge's
  // node check and EdgeSet's edge checks cannot fire here.
  const std::uint32_t n = ring_.edge_count();
  out.fill();
  std::uint64_t* const words = out.mutable_words();
  const auto present = [words](EdgeId e) {
    return ((words[e >> 6] >> (e & 63)) & 1) != 0;
  };
  // Only edges absent last round have nonzero runs, so the update touches
  // those and this round's removals, at most one edge per robot, instead
  // of all n.  A removed edge's bit is cleared before any later robot
  // pointing at it is looked at, so its run grows once per round.
  absent_.swap(previously_absent_);
  absent_.clear();
  for (const RobotSnapshot& r : gamma.robots()) {
    const EdgeId pointed =
        r.considered_direction() == GlobalDirection::kClockwise
            ? r.node
            : (r.node == 0 ? n - 1 : r.node - 1);
    if (present(pointed) && absence_run_[pointed] < max_absence_) {
      words[pointed >> 6] &= ~(std::uint64_t{1} << (pointed & 63));
      ++absence_run_[pointed];
      absent_.push_back(pointed);
    }
  }
  for (const EdgeId e : previously_absent_) {
    if (present(e)) absence_run_[e] = 0;
  }
}

std::string GreedyBlockerAdversary::name() const {
  return "greedy-blocker(A=" + std::to_string(max_absence_) + ")";
}

}  // namespace pef

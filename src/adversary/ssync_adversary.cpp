#include "adversary/ssync_adversary.hpp"

namespace pef {

void SsyncBlockingAdversary::choose_edges_into(
    Time, const Configuration& gamma, const ActivationMask& activated,
    EdgeSet& out) {
  out.fill();
  for (RobotId r = 0; r < gamma.robot_count(); ++r) {
    if (activated[r] == 0) continue;
    const NodeId u = gamma.robot(r).node;
    out.erase(ring_.adjacent_edge(u, GlobalDirection::kClockwise));
    out.erase(ring_.adjacent_edge(u, GlobalDirection::kCounterClockwise));
  }
}

}  // namespace pef

#include "adversary/adaptive_missing_edge.hpp"

#include <algorithm>

namespace pef {

void AdaptiveMissingEdgeAdversary::choose_edges_into(
    Time t, const Configuration& gamma, const ActivationMask&, EdgeSet& out) {
  out.fill();
  if (t < trigger_time_) return;

  if (!chosen_) {
    // Pick the edge maximising the distance from its nearer extremity to the
    // closest robot: robots then need the longest trek to reach a sentinel
    // post, maximising the exploration disruption.
    EdgeId best = 0;
    std::uint32_t best_score = 0;
    for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
      std::uint32_t nearest = ring_.node_count();
      for (const RobotSnapshot& r : gamma.robots()) {
        nearest = std::min({nearest, ring_.distance(r.node, ring_.edge_tail(e)),
                            ring_.distance(r.node, ring_.edge_head(e))});
      }
      if (nearest > best_score) {
        best_score = nearest;
        best = e;
      }
    }
    chosen_ = best;
  }
  out.erase(*chosen_);
}

}  // namespace pef

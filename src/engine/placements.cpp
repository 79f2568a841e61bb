#include "engine/placements.hpp"

#include <utility>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace pef {

std::vector<RobotPlacement> random_placements(const Ring& ring,
                                              std::uint32_t k,
                                              std::uint64_t seed) {
  PEF_CHECK(k >= 1);
  PEF_CHECK(k < ring.node_count());
  Xoshiro256 rng(seed);
  std::vector<NodeId> nodes(ring.node_count());
  for (NodeId u = 0; u < ring.node_count(); ++u) nodes[u] = u;
  // Fisher-Yates prefix shuffle: the first k entries are distinct nodes.
  std::vector<RobotPlacement> placements;
  placements.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    const auto j =
        i + static_cast<std::uint32_t>(rng.next_below(nodes.size() - i));
    std::swap(nodes[i], nodes[j]);
    placements.push_back({nodes[i], Chirality(rng.next_bool(0.5))});
  }
  return placements;
}

std::vector<RobotPlacement> spread_placements(const Ring& ring,
                                              std::uint32_t k) {
  PEF_CHECK(k >= 1);
  PEF_CHECK(k < ring.node_count());
  std::vector<RobotPlacement> placements(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    placements[i].node =
        static_cast<NodeId>((static_cast<std::uint64_t>(i) *
                             ring.node_count()) / k);
    placements[i].chirality = Chirality(true);
  }
  return placements;
}

}  // namespace pef

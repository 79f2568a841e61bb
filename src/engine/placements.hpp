// Initial placements: where the k robots of a run start.
#pragma once

#include <cstdint>
#include <vector>

#include "dynamic_graph/ring.hpp"
#include "robot/robot.hpp"

namespace pef {

/// Evenly spread, towerless default placements for k robots on an n-node
/// ring (robot i on node floor(i * n / k)), all with the same chirality.
[[nodiscard]] std::vector<RobotPlacement> spread_placements(
    const Ring& ring, std::uint32_t k);

/// Towerless placements on k distinct uniformly random nodes, each robot
/// with an independent random chirality (seeded, reproducible).
[[nodiscard]] std::vector<RobotPlacement> random_placements(
    const Ring& ring, std::uint32_t k, std::uint64_t seed);

}  // namespace pef

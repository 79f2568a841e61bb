// Configuration: positions + externally-visible robot variables at one
// instant (the gamma of the paper's executions).
//
// This is the read-only snapshot handed to adversaries (the paper's
// adversary is omniscient: it sees positions, directions and states) and
// recorded into traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dynamic_graph/ring.hpp"
#include "robot/chirality.hpp"

namespace pef {

/// Snapshot of one robot inside a Configuration.
struct RobotSnapshot {
  NodeId node = 0;
  LocalDirection dir = LocalDirection::kLeft;
  Chirality chirality{true};

  [[nodiscard]] GlobalDirection considered_direction() const {
    return chirality.to_global(dir);
  }
};

class Configuration {
 public:
  Configuration(Ring ring, std::vector<RobotSnapshot> robots)
      : ring_(ring),
        robots_(std::move(robots)),
        occupancy_(ring_.node_count(), 0) {
    for (const RobotSnapshot& r : robots_) {
      if (++occupancy_[r.node] == 2) ++tower_nodes_;
    }
  }

  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] std::uint32_t robot_count() const {
    return static_cast<std::uint32_t>(robots_.size());
  }
  [[nodiscard]] const RobotSnapshot& robot(RobotId r) const {
    return robots_[r];
  }
  [[nodiscard]] const std::vector<RobotSnapshot>& robots() const {
    return robots_;
  }

  /// Number of robots on node `u`.  O(1): the per-node occupancy histogram
  /// is maintained alongside the snapshots.
  [[nodiscard]] std::uint32_t robots_on(NodeId u) const {
    return occupancy_[u];
  }

  /// True iff some node holds more than one robot.  O(1).
  [[nodiscard]] bool has_tower() const { return tower_nodes_ > 0; }

  /// Distinct occupied nodes, ascending.
  [[nodiscard]] std::vector<NodeId> occupied_nodes() const {
    std::vector<NodeId> nodes;
    for (NodeId u = 0; u < ring_.node_count(); ++u) {
      if (occupancy_[u] > 0) nodes.push_back(u);
    }
    return nodes;
  }

  /// In-place mutators used by engines that keep one Configuration mirror
  /// alive across rounds instead of materializing a fresh snapshot per
  /// round.  They keep the occupancy histogram consistent.
  void relocate_robot(RobotId r, NodeId to) {
    const NodeId from = robots_[r].node;
    if (from == to) return;
    if (--occupancy_[from] == 1) --tower_nodes_;
    if (++occupancy_[to] == 2) ++tower_nodes_;
    robots_[r].node = to;
  }
  void set_robot_dir(RobotId r, LocalDirection dir) { robots_[r].dir = dir; }

  [[nodiscard]] std::string to_string() const;

 private:
  Ring ring_;
  std::vector<RobotSnapshot> robots_;
  std::vector<std::uint32_t> occupancy_;  // robots per node
  std::uint32_t tower_nodes_ = 0;         // nodes with occupancy >= 2
};

}  // namespace pef

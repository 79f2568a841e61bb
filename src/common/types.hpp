// Fundamental identifier and time types shared by every module.
//
// The paper models time as discrete rounds mapped to the naturals; nodes and
// edges of the underlying ring are anonymous but, as external observers (and
// as the adversary), we index them.  Robots are anonymous to each other but
// the simulator indexes them for bookkeeping.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace pef {

/// Index of a node in the underlying ring, in [0, n).
using NodeId = std::uint32_t;

/// Index of an edge in the underlying ring.  Edge `e` connects node `e` and
/// node `(e + 1) % n` (for the 2-node multigraph ring, edges 0 and 1 both
/// connect nodes 0 and 1 but are distinct edges).
using EdgeId = std::uint32_t;

/// Discrete round counter (the paper's time domain is N).
using Time = std::uint64_t;

/// Index of a robot, only used by the simulator / adversary; robots cannot
/// observe each other's identities (anonymity).
using RobotId = std::uint32_t;

/// Per-robot activation flags for one round (1 = selected): who acts in
/// an SSYNC round or advances a phase in an ASYNC tick, and who the SSYNC
/// adversaries see acting.  A plain byte vector rather than vector<bool>:
/// engines keep one mask alive and refill it in place every round, and
/// byte loads keep the hot loop branch-free.
using ActivationMask = std::vector<std::uint8_t>;

inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeId kInvalidEdge = std::numeric_limits<EdgeId>::max();
inline constexpr Time kTimeInfinity = std::numeric_limits<Time>::max();

/// Global (external-observer) direction around the ring.  Clockwise moves
/// from node `u` to node `(u + 1) % n`.
enum class GlobalDirection : std::uint8_t {
  kClockwise = 0,
  kCounterClockwise = 1,
};

/// Local direction as labelled by one robot's private chirality.  The paper's
/// robots each consistently label their two ports `left` / `right`, but two
/// robots need not agree (no common sense of direction).
enum class LocalDirection : std::uint8_t {
  kLeft = 0,
  kRight = 1,
};

[[nodiscard]] constexpr GlobalDirection opposite(GlobalDirection d) {
  return d == GlobalDirection::kClockwise ? GlobalDirection::kCounterClockwise
                                          : GlobalDirection::kClockwise;
}

[[nodiscard]] constexpr LocalDirection opposite(LocalDirection d) {
  return d == LocalDirection::kLeft ? LocalDirection::kRight
                                    : LocalDirection::kLeft;
}

[[nodiscard]] constexpr const char* to_string(GlobalDirection d) {
  return d == GlobalDirection::kClockwise ? "cw" : "ccw";
}

[[nodiscard]] constexpr const char* to_string(LocalDirection d) {
  return d == LocalDirection::kLeft ? "left" : "right";
}

}  // namespace pef

// The FSYNC execution engine (Section 2.3 of the paper).
//
// Each round is three atomic synchronous phases executed by all robots:
//   Look    - each robot snapshots ExistsEdge(dir), ExistsEdge(opposite dir)
//             and ExistsOtherRobotsOnCurrentNode() against E_t and gamma_t;
//   Compute - each robot runs the algorithm, possibly flipping `dir`;
//   Move    - each robot crosses the edge it points to iff that edge is in
//             E_t, else stays put.
// The adversary supplies E_t at the start of the round, seeing gamma_t and
// the full activation mask.
#pragma once

#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/types.hpp"
#include "engine/placements.hpp"  // the placement helpers its users share
#include "robot/algorithm.hpp"
#include "robot/robot.hpp"
#include "scheduler/trace.hpp"

namespace pef {

struct SimulatorOptions {
  /// Record a full Trace (positions, dirs, edge sets per round).  Costs
  /// O(k + n/64) memory per round; disable for very long timing benches.
  bool record_trace = true;

  /// Enforce the paper's well-initiated execution requirements: strictly
  /// fewer robots than nodes and a towerless initial configuration.
  bool enforce_well_initiated = true;
};

class Simulator {
 public:
  Simulator(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
            const std::vector<RobotPlacement>& placements,
            SimulatorOptions options = {});

  /// Execute one synchronous round; returns the record of what happened
  /// (also appended to the trace when recording).
  RoundRecord step();

  /// Execute `rounds` further rounds.
  void run(Time rounds);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] const Ring& ring() const { return ring_; }
  [[nodiscard]] std::uint32_t robot_count() const {
    return static_cast<std::uint32_t>(robots_.size());
  }
  [[nodiscard]] const Robot& robot(RobotId r) const { return robots_[r]; }

  /// Current configuration (the gamma at the start of the next round).
  [[nodiscard]] Configuration snapshot() const;

  [[nodiscard]] const Trace& trace() const { return *trace_; }

 private:
  Ring ring_;
  AlgorithmPtr algorithm_;
  AdversaryPtr adversary_;
  SimulatorOptions options_;
  std::vector<Robot> robots_;
  ActivationMask activated_;  // every robot, every round
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

}  // namespace pef

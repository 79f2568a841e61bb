// ASYNC (fully asynchronous) extension — the third model of the paper's
// taxonomy (Section 1): "In ASYNC, robots execute L-C-M in a fully
// independent manner."
//
// Each robot progresses through its Look / Compute / Move phases
// separately, one phase per activation, under a fair ASYNC Activation
// (engine/activation.hpp).  The defining hazard is staleness: the View
// consumed by Compute was snapshotted at Look time, and the edge set
// consulted at Move time may have changed since — so a robot can chase an
// edge that no longer exists, or act on multiplicity information that is
// rounds old.
//
// Since SSYNC embeds into ASYNC (activate a robot's three phases
// back-to-back), the [10] impossibility carries over: the blocking
// adversary defeats every algorithm here too (see async_test.cpp).  The
// engine also degenerates to FSYNC when every robot advances every round
// over a static graph (cross-checked against Simulator in tests).
//
// AsyncSimulator below is the canonical reference; the unified Engine
// (src/engine/engine.hpp) runs the same model on its throughput path with
// ExecutionModel::kAsync.
#pragma once

#include <memory>
#include <vector>

#include "adversary/ssync_adversary.hpp"  // the blocker its users share
#include "common/types.hpp"
#include "engine/activation.hpp"
#include "robot/algorithm.hpp"
#include "robot/robot.hpp"
#include "scheduler/trace.hpp"

namespace pef {

/// The ASYNC reference engine.  Its edge adversary sees the configuration
/// and, as its activation mask, the set of robots whose Move fires each
/// tick.
class AsyncSimulator {
 public:
  AsyncSimulator(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
                 Activation activation,
                 const std::vector<RobotPlacement>& placements);

  /// One scheduler tick: every selected robot executes its pending phase.
  RoundRecord step();
  void run(Time rounds);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Configuration snapshot() const;
  [[nodiscard]] const Trace& trace() const { return *trace_; }
  [[nodiscard]] Phase phase_of(RobotId r) const { return phases_[r]; }

 private:
  Ring ring_;
  AlgorithmPtr algorithm_;
  AdversaryPtr adversary_;
  Activation activation_;
  std::vector<Robot> robots_;
  std::vector<Phase> phases_;
  std::vector<View> pending_views_;  // snapshot taken at Look time
  ActivationMask advancing_;         // reused across ticks
  ActivationMask moving_;            // reused across ticks
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

}  // namespace pef

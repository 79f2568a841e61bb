// SSYNC (semi-synchronous) extension.
//
// The paper restricts its study to FSYNC because of the impossibility result
// of Di Luna et al. [10]: in SSYNC, an adversary that controls *activation*
// as well as edges defeats every exploration algorithm regardless of
// dynamicity assumptions — it can activate robots one at a time and remove
// the edge the activated robot wants to traverse, so no robot ever moves,
// while every edge remains recurrent (it is present whenever its robot is
// not activated).  This module reproduces that argument executably
// (bench_ssync_impossibility).
//
// Model: at each round a fair Activation (engine/activation.hpp) selects a
// subset of robots; selected robots perform an atomic Look-Compute-Move
// against the round's edge set, chosen by an Adversary that sees the
// selection (SsyncBlockingAdversary reads it); the others do nothing (and
// keep their state).
//
// Two engines run this model: SsyncSimulator below (the canonical
// reference) and the unified Engine (src/engine/engine.hpp) with
// ExecutionModel::kSsync (the throughput path; differentially tested
// against SsyncSimulator round-by-round).
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

/// The SSYNC reference engine.  Mirrors Simulator but applies the L-C-M
/// cycle only to activated robots.
class SsyncSimulator {
 public:
  SsyncSimulator(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
                 Activation activation,
                 const std::vector<RobotPlacement>& placements);

  RoundRecord step();
  void run(Time rounds);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Configuration snapshot() const;
  [[nodiscard]] const Trace& trace() const { return *trace_; }

 private:
  Ring ring_;
  AlgorithmPtr algorithm_;
  AdversaryPtr adversary_;
  Activation activation_;
  std::vector<Robot> robots_;
  ActivationMask activated_;  // reused across rounds
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

}  // namespace pef

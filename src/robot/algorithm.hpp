// The deterministic robot algorithm interface (the Compute phase).
//
// Robots are uniform: one Algorithm instance is shared by every robot, and
// each robot owns an AlgorithmState (its persistent memory).  The Compute
// phase may flip the robot's `dir` variable based only on the Look-phase
// View and the robot's own state — matching the paper's model exactly: no
// IDs, no communication, no global knowledge.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "robot/kernel.hpp"
#include "robot/view.hpp"

namespace pef {

/// Persistent per-robot memory.  Concrete algorithms subclass this; the
/// simulator treats it as an opaque blob (it can clone it for trace
/// snapshots and stringify it for debugging).
class AlgorithmState {
 public:
  virtual ~AlgorithmState() = default;

  [[nodiscard]] virtual std::unique_ptr<AlgorithmState> clone() const = 0;

  /// Human-readable dump for traces and test failures.
  [[nodiscard]] virtual std::string to_string() const = 0;
};

/// Trivial state for memoryless (oblivious) algorithms.
class EmptyState final : public AlgorithmState {
 public:
  [[nodiscard]] std::unique_ptr<AlgorithmState> clone() const override {
    return std::make_unique<EmptyState>();
  }
  [[nodiscard]] std::string to_string() const override { return "{}"; }
};

class Algorithm {
 public:
  virtual ~Algorithm() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Fresh persistent memory for one robot.  `robot_index` exists only so
  /// that *non-paper* randomized baselines can derive independent streams;
  /// paper algorithms ignore it (robots are anonymous and uniform).
  [[nodiscard]] virtual std::unique_ptr<AlgorithmState> make_state(
      RobotId robot_index) const = 0;

  /// The Compute phase: may flip `dir` (the robot's direction variable, in
  /// the robot's local frame) and update `state`.  `view` is the Look-phase
  /// snapshot taken with the *incoming* value of `dir`.
  virtual void compute(const View& view, LocalDirection& dir,
                       AlgorithmState& state) const = 0;

  /// The algorithm's devirtualized twin: a KernelSpec the engines run
  /// through the enum-dispatched POD compute path (algorithms/kernels.hpp)
  /// instead of this virtual interface, which only the reference
  /// simulators call.  Must be behaviourally identical to compute() —
  /// differential tests against the simulators enforce it.  Every registry
  /// algorithm provides one; Engine and BatchEngine refuse an algorithm
  /// without one.
  [[nodiscard]] virtual std::optional<KernelSpec> kernel() const {
    return std::nullopt;
  }
};

using AlgorithmPtr = std::shared_ptr<const Algorithm>;

}  // namespace pef

// Who acts each round: the execution models and their one activation value.
//
// The paper restricts its study to FSYNC, where every robot performs an
// atomic Look-Compute-Move every round, because of the impossibility result
// of Di Luna et al. [10]: once the adversary also chooses which robots act,
// it defeats every exploration algorithm.  The other two models of the
// paper's Section 1 taxonomy still run here (bench_ssync_impossibility
// executes that argument):
//
//   SSYNC - each round a fair scheduler selects a subset of robots; the
//           selected ones perform an atomic L-C-M, the others keep their
//           state;
//   ASYNC - each robot moves through its own Look / Compute / Move machine,
//           one phase per activation, so a view may be stale by the time
//           its Compute and Move run.
//
// Both models select their actors the same way, so one closed value
// describes either: an Activation names the model it drives and one of
// three rules — every robot, one robot in turn, or an independent seeded
// coin per robot (forced non-empty).  Every engine draws the same masks
// from it: the solo Engine and the reference SsyncSimulator /
// AsyncSimulator call fill() each round, and BatchEngine copies the fields
// into its per-lane planes and replays fill() draw for draw.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace pef {

/// The activation model of a run (the paper's Section 1 taxonomy).
enum class ExecutionModel : std::uint8_t {
  kFsync = 0,
  kSsync = 1,
  kAsync = 2,
};

[[nodiscard]] constexpr const char* to_string(ExecutionModel m) {
  switch (m) {
    case ExecutionModel::kFsync:
      return "fsync";
    case ExecutionModel::kSsync:
      return "ssync";
    case ExecutionModel::kAsync:
      return "async";
  }
  return "?";
}

/// Parse "fsync" | "ssync" | "async"; nullopt on anything else.
[[nodiscard]] std::optional<ExecutionModel> parse_execution_model(
    const std::string& name);

/// The pending phase of an ASYNC robot's Look / Compute / Move machine.
enum class Phase : std::uint8_t { kLook = 0, kCompute = 1, kMove = 2 };

/// The rule that selects each round's actors.  All three are fair: every
/// robot acts infinitely often (Bernoulli with probability 1).
enum class ActivationKind : std::uint8_t {
  kFull,        // every robot, every round
  kRoundRobin,  // robot t mod k
  kBernoulli,   // each robot independently with probability p, from rng;
                // when no robot is drawn, one uniform draw picks a robot
};

/// One run's activation: the model it drives, its rule and, for Bernoulli,
/// the probability and the generator it draws from.  The default value is
/// FSYNC's: every robot, every round.  An SSYNC or ASYNC engine takes the
/// value of its model; full activation under ASYNC advances every robot one
/// phase per tick (FSYNC at a third of the speed).
struct Activation {
  ExecutionModel model = ExecutionModel::kFsync;
  ActivationKind kind = ActivationKind::kFull;
  double p = 1.0;
  Xoshiro256 rng{0};

  [[nodiscard]] static Activation full(ExecutionModel model) {
    return {model, ActivationKind::kFull};
  }
  [[nodiscard]] static Activation round_robin(ExecutionModel model) {
    return {model, ActivationKind::kRoundRobin};
  }
  [[nodiscard]] static Activation bernoulli(ExecutionModel model, double p,
                                            std::uint64_t seed) {
    return {model, ActivationKind::kBernoulli, p, Xoshiro256(seed)};
  }

  /// Fill `mask` with round t's actors among `k` robots (resizing it to k):
  /// at least one robot is selected.  In place, so callers reuse one buffer
  /// across rounds.  Bernoulli draws k trials in robot order, then the
  /// fallback, all from `rng`.
  void fill(Time t, std::uint32_t k, ActivationMask& mask);
};

/// The seeded activation every entry point that maps the FSYNC adversary
/// battery onto SSYNC uses (SweepRunner, run_experiment, pef_run):
/// Bernoulli(p) over a stream derived from `seed` with one shared salt, so
/// solo, batched and reference runs of the same (model, seed) see one
/// stream.
[[nodiscard]] inline Activation standard_ssync_activation(double p,
                                                          std::uint64_t seed) {
  return Activation::bernoulli(ExecutionModel::kSsync, p,
                               derive_seed(seed, 0x55ac));
}

/// The ASYNC counterpart of standard_ssync_activation, with its own salt.
[[nodiscard]] inline Activation standard_async_phases(double p,
                                                      std::uint64_t seed) {
  return Activation::bernoulli(ExecutionModel::kAsync, p,
                               derive_seed(seed, 0xa5fc));
}

/// The activation every such entry point gives `model`: FSYNC's default
/// value, or the standard seeded one of SSYNC or ASYNC.
[[nodiscard]] inline Activation standard_activation(ExecutionModel model,
                                                    double p,
                                                    std::uint64_t seed) {
  switch (model) {
    case ExecutionModel::kFsync:
      break;
    case ExecutionModel::kSsync:
      return standard_ssync_activation(p, seed);
    case ExecutionModel::kAsync:
      return standard_async_phases(p, seed);
  }
  return {};
}

}  // namespace pef

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
// Model: at each round a fair activation policy selects a subset of robots;
// selected robots perform an atomic Look-Compute-Move against the round's
// edge set; the others do nothing (and keep their state).
//
// Two engines run this model: SsyncSimulator below (the canonical
// reference) and the unified Engine (src/engine/engine.hpp) with
// ExecutionModel::kSsync (the throughput path; differentially tested
// against SsyncSimulator round-by-round).
#pragma once

#include <memory>
#include <vector>

#include "adversary/adversary.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "dynamic_graph/schedule.hpp"
#include "robot/algorithm.hpp"
#include "robot/robot.hpp"
#include "scheduler/trace.hpp"

namespace pef {

/// Per-robot activation flags for one round (1 = selected).  A plain byte
/// vector rather than vector<bool>: engines keep one mask alive and refill
/// it in place every round, and byte loads keep the hot loop branch-free.
using ActivationMask = std::vector<std::uint8_t>;

/// How a policy's selection can be reproduced by a batched engine without
/// calling the virtual activate()/advance() per replica per round.  The
/// common policies are pure functions of (t, robot count) or of a private
/// RNG stream, so BatchEngine regenerates their masks with enum-dispatched
/// kernels over all replicas at once (bit-identical: same draw order, same
/// forced-nonempty fallback).  kVirtual keeps the virtual path — exotic
/// policies stay correct, just off the fast plane.
enum class ActivationBatchKind : std::uint8_t {
  kVirtual = 0,   // no batched equivalent; call the virtual method per lane
  kFull,          // every robot, every round
  kRoundRobin,    // robot t mod k
  kBernoulli,     // iid per-robot draws from a seeded stream (see p()/rng())
};

/// Chooses which robots are activated each round.  Must be fair (every robot
/// activated infinitely often) to be a legal SSYNC scheduler.
class ActivationPolicy {
 public:
  virtual ~ActivationPolicy() = default;
  /// Fill `mask` with this round's activation set (resizing it to
  /// gamma.robot_count()); at least one robot must be selected.  In-place so
  /// callers reuse one buffer across rounds — no per-round allocation.
  virtual void activate(Time t, const Configuration& gamma,
                        ActivationMask& mask) = 0;
  /// Which batched kernel reproduces this policy (kVirtual = none).
  [[nodiscard]] virtual ActivationBatchKind batch_kind() const {
    return ActivationBatchKind::kVirtual;
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

/// One robot per round, cyclically (fair).
class RoundRobinActivation final : public ActivationPolicy {
 public:
  void activate(Time t, const Configuration& gamma,
                ActivationMask& mask) override {
    mask.assign(gamma.robot_count(), 0);
    mask[static_cast<std::size_t>(t % gamma.robot_count())] = 1;
  }
  [[nodiscard]] ActivationBatchKind batch_kind() const override {
    return ActivationBatchKind::kRoundRobin;
  }
  [[nodiscard]] std::string name() const override { return "round-robin"; }
};

/// Everyone every round (degenerates to FSYNC; used to cross-check the two
/// engines against each other in tests).
class FullActivation final : public ActivationPolicy {
 public:
  void activate(Time, const Configuration& gamma,
                ActivationMask& mask) override {
    mask.assign(gamma.robot_count(), 1);
  }
  [[nodiscard]] ActivationBatchKind batch_kind() const override {
    return ActivationBatchKind::kFull;
  }
  [[nodiscard]] std::string name() const override { return "full"; }
};

/// Random fair subset (each robot independently with probability p, forced
/// non-empty).
class BernoulliActivation final : public ActivationPolicy {
 public:
  BernoulliActivation(double p, std::uint64_t seed) : p_(p), rng_(seed) {}
  void activate(Time, const Configuration& gamma,
                ActivationMask& mask) override;
  [[nodiscard]] ActivationBatchKind batch_kind() const override {
    return ActivationBatchKind::kBernoulli;
  }
  /// The batched kernel's inputs: BatchEngine seeds its per-replica RNG
  /// plane from a copy of rng() (taken before any activate() call), so the
  /// batched draws replay this policy's stream bit-for-bit.
  [[nodiscard]] double p() const { return p_; }
  [[nodiscard]] const Xoshiro256& rng() const { return rng_; }
  [[nodiscard]] std::string name() const override { return "bernoulli"; }

 private:
  double p_;
  Xoshiro256 rng_;
};

/// The standard seeded activation policy used by every entry point that
/// maps the FSYNC adversary battery onto SSYNC (SweepRunner,
/// run_experiment, pef_run): Bernoulli(p) over a stream derived from `seed`
/// with one shared salt, so fast and reference runs of the same
/// (model, seed) see identical activation streams.
[[nodiscard]] inline std::unique_ptr<ActivationPolicy>
standard_ssync_activation(double p, std::uint64_t seed) {
  return std::make_unique<BernoulliActivation>(p, derive_seed(seed, 0x55ac));
}

/// The SSYNC adversary: sees the configuration *and* the activation mask.
class SsyncAdversary {
 public:
  virtual ~SsyncAdversary() = default;
  [[nodiscard]] virtual const Ring& ring() const = 0;
  /// Choose E_t into `out`, a caller-owned set sized to
  /// ring().edge_count() whose stale contents are overwritten: the one fill
  /// every SSYNC adversary implements, which the engines call on their
  /// scratch set.  `activated` marks the robots that act this round (ASYNC:
  /// those firing their Move phase).
  virtual void choose_edges_into(Time t, const Configuration& gamma,
                                 const ActivationMask& activated,
                                 EdgeSet& out) = 0;
  /// E_t as a fresh set, for the reference simulators and tests.
  [[nodiscard]] EdgeSet choose_edges(Time t, const Configuration& gamma,
                                     const ActivationMask& activated) {
    EdgeSet edges(ring().edge_count());
    choose_edges_into(t, gamma, activated, edges);
    return edges;
  }
  /// Non-null iff this adversary is a pure function of time (it reads
  /// neither gamma nor the activation mask): the wrapped oblivious
  /// schedule.  BatchEngine uses it to route a replica's edge sets through
  /// the schedule's word-plane filler and to skip that replica's
  /// Configuration mirror entirely.  Conservative default: nullptr.
  [[nodiscard]] virtual const EdgeSchedule* oblivious_schedule() const {
    return nullptr;
  }
  [[nodiscard]] virtual std::string name() const = 0;
};

/// The [10]-style blocker: removes both adjacent edges of every activated
/// robot; every other edge present.  No robot ever moves, yet each edge is
/// present at every round in which its incident robots are inactive — with
/// fair non-full activation every edge is recurrent.
class SsyncBlockingAdversary final : public SsyncAdversary {
 public:
  explicit SsyncBlockingAdversary(Ring ring) : ring_(ring) {}
  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask& activated,
                         EdgeSet& out) override;
  [[nodiscard]] std::string name() const override { return "ssync-blocker"; }

 private:
  Ring ring_;
};

/// An SsyncAdversary that ignores activation (wraps an oblivious schedule).
class SsyncObliviousAdversary final : public SsyncAdversary {
 public:
  explicit SsyncObliviousAdversary(SchedulePtr schedule)
      : schedule_(std::move(schedule)) {}
  [[nodiscard]] const Ring& ring() const override {
    return schedule_->ring();
  }
  void choose_edges_into(Time t, const Configuration&, const ActivationMask&,
                         EdgeSet& out) override {
    schedule_->edges_into(t, out);
  }
  [[nodiscard]] const EdgeSchedule* oblivious_schedule() const override {
    return schedule_.get();
  }
  [[nodiscard]] std::string name() const override {
    return schedule_->name();
  }
  [[nodiscard]] const SchedulePtr& schedule() const { return schedule_; }

 private:
  SchedulePtr schedule_;
};

/// Adapts any FSYNC Adversary — oblivious or adaptive — to the SSYNC/ASYNC
/// interface by ignoring the activation mask.  This is how the sweep grid
/// and pef_run reuse the standard adversary battery across every execution
/// model.
class SsyncFromFsyncAdversary final : public SsyncAdversary {
 public:
  explicit SsyncFromFsyncAdversary(AdversaryPtr inner)
      : inner_(std::move(inner)) {
    // Oblivious inner adversaries are pure functions of time: expose their
    // schedule through oblivious_schedule() (BatchEngine's row fill, cycle
    // fast-forward).
    if (const auto* oblivious =
            dynamic_cast<const ObliviousAdversary*>(inner_.get())) {
      schedule_ = oblivious->schedule().get();
    }
  }
  [[nodiscard]] const Ring& ring() const override { return inner_->ring(); }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask&, EdgeSet& out) override {
    inner_->choose_edges_into(t, gamma, out);
  }
  [[nodiscard]] const EdgeSchedule* oblivious_schedule() const override {
    return schedule_;
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  AdversaryPtr inner_;
  const EdgeSchedule* schedule_ = nullptr;  // non-null iff inner is oblivious
};

/// The SSYNC reference engine.  Mirrors Simulator but applies the L-C-M
/// cycle only to activated robots.
class SsyncSimulator {
 public:
  SsyncSimulator(Ring ring, AlgorithmPtr algorithm,
                 std::unique_ptr<SsyncAdversary> adversary,
                 std::unique_ptr<ActivationPolicy> activation,
                 const std::vector<RobotPlacement>& placements);

  RoundRecord step();
  void run(Time rounds);

  [[nodiscard]] Time now() const { return now_; }
  [[nodiscard]] Configuration snapshot() const;
  [[nodiscard]] const Trace& trace() const { return *trace_; }

 private:
  Ring ring_;
  AlgorithmPtr algorithm_;
  std::unique_ptr<SsyncAdversary> adversary_;
  std::unique_ptr<ActivationPolicy> activation_;
  std::vector<Robot> robots_;
  ActivationMask activated_;  // reused across rounds
  Time now_ = 0;
  std::unique_ptr<Trace> trace_;
};

}  // namespace pef

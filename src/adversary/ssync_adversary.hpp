// The SSYNC / ASYNC edge adversary: chooses E_t seeing the configuration
// *and* which robots act this round.
//
// Under SSYNC `activated` marks the robots that perform their L-C-M this
// round; under ASYNC it marks the robots whose Move phase fires this tick
// (the only phase that interacts with edges).  The [10]-style blocker below
// uses that knowledge to freeze every algorithm; the two adapters reuse the
// oblivious schedules and the FSYNC adversary battery, which ignore it.
#pragma once

#include <memory>
#include <string>

#include "adversary/adversary.hpp"
#include "common/types.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/ring.hpp"
#include "dynamic_graph/schedule.hpp"
#include "robot/configuration.hpp"

namespace pef {

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
  /// Non-null iff this adversary adapts an FSYNC Adversary that ignores
  /// the activation mask: the wrapped adversary.  BatchEngine reaches a
  /// wrapped greedy blocker through it, as it reaches a wrapped schedule
  /// through oblivious_schedule().  Conservative default: nullptr.
  [[nodiscard]] virtual const Adversary* fsync_adversary() const {
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
  [[nodiscard]] const Adversary* fsync_adversary() const override {
    return inner_.get();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  AdversaryPtr inner_;
  const EdgeSchedule* schedule_ = nullptr;  // non-null iff inner is oblivious
};

/// ASYNC blocker: removes both adjacent edges of every robot that executes
/// its Move phase this tick.  No robot ever moves; every edge stays
/// recurrent under non-lockstep fair scheduling.  (The ASYNC face of the
/// [10] impossibility.)
///
/// In the ASYNC engine the adversary's `activated` mask is the set of
/// robots whose *Move* phase fires this tick — SsyncBlockingAdversary has
/// exactly the wanted behaviour, so the blocker is a thin alias kept for
/// readability at call sites.
using AsyncMoveBlocker = SsyncBlockingAdversary;

}  // namespace pef

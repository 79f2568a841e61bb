// The adversary interface: chooses the present edge set E_t each round.
//
// The paper's adversary is omniscient and adaptive: it knows the algorithm,
// the robots' positions and their full states, and picks E_t with no
// stability/recurrence/periodicity obligation beyond connected-over-time.
// Oblivious schedules (functions of time only) are wrapped by
// ObliviousAdversary; the lower-bound constructions are genuinely adaptive.
//
// One interface serves all three execution models: the adversary also sees
// which robots act this round.  FSYNC activates every robot every round, so
// its mask is always full; only the SSYNC / ASYNC blocker of Di Luna et
// al.'s impossibility (SsyncBlockingAdversary) reads it.
#pragma once

#include <memory>
#include <string>

#include "common/types.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/ring.hpp"
#include "dynamic_graph/schedule.hpp"
#include "robot/configuration.hpp"

namespace pef {

class Adversary {
 public:
  virtual ~Adversary() = default;

  [[nodiscard]] virtual const Ring& ring() const = 0;

  /// Choose E_t into `out`, a caller-owned set sized to
  /// ring().edge_count() whose stale contents are overwritten: the one fill
  /// every adversary implements, which the engines call on their scratch
  /// set.  Called exactly once per round, in increasing `t` order, with the
  /// configuration *before* the round's Look phase (the paper's gamma_t)
  /// and `activated`, one byte per robot: every robot under FSYNC, the
  /// round's actors under SSYNC, the robots whose Move phase fires under
  /// ASYNC.  Implementations may keep internal state.
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

  [[nodiscard]] virtual std::string name() const = 0;
};

using AdversaryPtr = std::unique_ptr<Adversary>;

/// Adapts an oblivious EdgeSchedule to the Adversary interface.
class ObliviousAdversary final : public Adversary {
 public:
  explicit ObliviousAdversary(SchedulePtr schedule)
      : schedule_(std::move(schedule)) {}

  [[nodiscard]] const Ring& ring() const override {
    return schedule_->ring();
  }
  void choose_edges_into(Time t, const Configuration&, const ActivationMask&,
                         EdgeSet& out) override {
    schedule_->edges_into(t, out);
  }
  [[nodiscard]] std::string name() const override {
    return schedule_->name();
  }

  [[nodiscard]] const SchedulePtr& schedule() const { return schedule_; }

 private:
  SchedulePtr schedule_;
};

[[nodiscard]] inline AdversaryPtr make_oblivious(SchedulePtr schedule) {
  return std::make_unique<ObliviousAdversary>(std::move(schedule));
}

}  // namespace pef

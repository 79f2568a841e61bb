// The SSYNC / ASYNC blocker of Di Luna et al. [10]: an edge adversary that
// uses the activation mask.
//
// Every adversary sees which robots act (adversary/adversary.hpp): under
// SSYNC the robots that perform their L-C-M this round, under ASYNC the
// robots whose Move phase fires this tick (the only phase that interacts
// with edges), under FSYNC every robot.  The blocker below uses that
// knowledge to freeze every algorithm; the other adversaries ignore it.
#pragma once

#include <string>
#include <utility>

#include "adversary/adversary.hpp"
#include "common/types.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/ring.hpp"
#include "robot/configuration.hpp"

namespace pef {

/// The [10]-style blocker: removes both adjacent edges of every activated
/// robot; every other edge present.  No robot ever moves, yet each edge is
/// present at every round in which its incident robots are inactive — with
/// fair non-full activation every edge is recurrent.  Under FSYNC every
/// robot is activated, so the edges beside the robots never come back.
class SsyncBlockingAdversary final : public Adversary {
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

/// Forwards every call, mask included, to the adversary it holds.  No
/// adversary needs adapting across models any more: perfbench's solo
/// replay is this shim's last user, and the next change to perfbench
/// deletes the shim with that use.
class SsyncFromFsyncAdversary final : public Adversary {
 public:
  explicit SsyncFromFsyncAdversary(AdversaryPtr inner)
      : inner_(std::move(inner)) {}
  [[nodiscard]] const Ring& ring() const override { return inner_->ring(); }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask& activated,
                         EdgeSet& out) override {
    inner_->choose_edges_into(t, gamma, activated, out);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

 private:
  AdversaryPtr inner_;
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

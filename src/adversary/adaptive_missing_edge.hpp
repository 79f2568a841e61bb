// AdaptiveMissingEdgeAdversary ("sentinel trap"): the adaptive version of
// the eventual-missing-edge schedule.
//
// All edges are present until `trigger_time`; at the trigger the adversary
// inspects the configuration, kills the edge whose extremities are farthest
// from every robot, and keeps it missing forever.  Legal by construction
// (exactly one eventually-missing edge) and the single-trace behaviour that
// Section 3 of the paper is built around: any correct k >= 3 algorithm must
// end up posting sentinels at the two extremities (Lemma 3.7) while the
// remaining k - 2 explorers shuttle along the surviving chain.
#pragma once

#include <optional>

#include "adversary/adversary.hpp"

namespace pef {

class AdaptiveMissingEdgeAdversary final : public Adversary {
 public:
  AdaptiveMissingEdgeAdversary(Ring ring, Time trigger_time)
      : ring_(ring), trigger_time_(trigger_time) {}

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask& activated,
                         EdgeSet& out) override;
  [[nodiscard]] std::string name() const override {
    return "adaptive-missing(t=" + std::to_string(trigger_time_) + ")";
  }

  /// The edge chosen at the trigger; nullopt before.
  [[nodiscard]] std::optional<EdgeId> chosen_edge() const { return chosen_; }

 private:
  Ring ring_;
  Time trigger_time_;
  std::optional<EdgeId> chosen_;
};

}  // namespace pef

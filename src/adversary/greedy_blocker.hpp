// GreedyBlockerAdversary — a legality-capped stress adversary for the
// possibility side.
//
// Every round it removes exactly the edges the robots currently point at
// (the worst single-round choice an adversary can make), but a per-edge
// absence budget keeps it honest: an edge may be absent for at most
// `max_absence` consecutive rounds, so every edge is recurrent and the
// realized graph is connected-over-time by construction.
//
// Theorem 3.1 promises PEF_3+ explores under *any* connected-over-time
// behaviour, so this adversary can only slow it down (the stress bench
// measures by how much); baselines without the tower protocol degrade much
// further or starve.
#pragma once

#include <vector>

#include "adversary/adversary.hpp"

namespace pef {

class GreedyBlockerAdversary final : public Adversary {
 public:
  GreedyBlockerAdversary(Ring ring, Time max_absence);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void choose_edges_into(Time t, const Configuration& gamma,
                         EdgeSet& out) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] Time max_absence() const { return max_absence_; }

 private:
  Ring ring_;
  Time max_absence_;
  std::vector<Time> absence_run_;  // consecutive rounds absent, per edge
  // The edges this round and last round removed: the only nonzero runs.
  std::vector<EdgeId> absent_;
  std::vector<EdgeId> previously_absent_;
};

}  // namespace pef

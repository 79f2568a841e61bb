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

#include <cstddef>
#include <cstdint>
#include <vector>

#include "adversary/adversary.hpp"

namespace pef {

/// One round of the greedy-blocker rule: the one body that
/// GreedyBlockerAdversary and BatchEngine's blocker lanes share.  `words`
/// holds a row with every edge present, `pointed(i)` is the edge robot i
/// points at, `run[e]` is edge e's current absence run, and `previous`
/// lists the `previous_count` edges absent last round (the only nonzero
/// runs).  In robot order, removes each pointed edge that is still present
/// and whose run is below `max_absence`, extends its run and hands it to
/// `removed`; then ends the runs of last round's absent edges that are
/// present again.  A removed edge's bit is cleared before any later robot
/// pointing at it is looked at, so its run grows once per round.
template <typename Run, typename Pointed, typename Removed>
[[gnu::always_inline]] inline void greedy_block(
    std::uint32_t robots, Pointed&& pointed, Time max_absence,
    std::uint64_t* words, Run* run, const EdgeId* previous,
    std::size_t previous_count, Removed&& removed) {
  const auto present = [words](EdgeId e) {
    return ((words[e >> 6] >> (e & 63)) & 1) != 0;
  };
  for (std::uint32_t i = 0; i < robots; ++i) {
    const EdgeId e = pointed(i);
    if (present(e) && run[e] < max_absence) {
      words[e >> 6] &= ~(std::uint64_t{1} << (e & 63));
      ++run[e];
      removed(e);
    }
  }
  for (std::size_t j = 0; j < previous_count; ++j) {
    if (present(previous[j])) run[previous[j]] = 0;
  }
}

class GreedyBlockerAdversary final : public Adversary {
 public:
  GreedyBlockerAdversary(Ring ring, Time max_absence);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask& activated,
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

// MarkovSchedule: per-edge two-state (up/down) Markov dynamics.
//
// A more realistic dynamics family than iid Bernoulli: each edge is an
// independent two-state Markov chain with failure probability `p_fail`
// (up -> down per round) and recovery probability `p_recover`
// (down -> up per round).  Expected up-run length is 1/p_fail and down-run
// length 1/p_recover, so the stationary availability is
// p_recover / (p_fail + p_recover).  With p_recover > 0 every edge is
// recurrent with probability 1: connected-over-time.
//
// Used by the stress battery and by the transit/patrol examples as the
// "links fail and get repaired" model.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "dynamic_graph/schedule.hpp"

namespace pef {

class MarkovSchedule final : public EdgeSchedule {
 public:
  MarkovSchedule(Ring ring, double p_fail, double p_recover,
                 std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double stationary_availability() const {
    return p_recover_ / (p_fail_ + p_recover_);
  }

 private:
  [[nodiscard]] bool edge_present(EdgeId e, Time t) const;

  Ring ring_;
  double p_fail_;
  double p_recover_;
  std::uint64_t seed_;

  // Lazily extended per-edge state history (single-threaded, like the rest
  // of the library).  states_[e][t] = up?
  struct EdgeChain {
    std::vector<bool> states;
    Xoshiro256 rng{0};
    bool initialised = false;
  };
  mutable std::vector<EdgeChain> chains_;
};

}  // namespace pef

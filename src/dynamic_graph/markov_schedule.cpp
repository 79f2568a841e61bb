#include "dynamic_graph/markov_schedule.hpp"

#include "common/check.hpp"
#include "common/table.hpp"

namespace pef {

MarkovSchedule::MarkovSchedule(Ring ring, double p_fail, double p_recover,
                               std::uint64_t seed)
    : ring_(ring),
      p_fail_(p_fail),
      p_recover_(p_recover),
      seed_(seed),
      chains_(ring.edge_count()) {
  PEF_CHECK(p_fail >= 0.0 && p_fail <= 1.0);
  PEF_CHECK(p_recover > 0.0 && p_recover <= 1.0);  // recurrence needs > 0
}

bool MarkovSchedule::edge_present(EdgeId e, Time t) const {
  EdgeChain& chain = chains_[e];
  if (!chain.initialised) {
    chain.rng = Xoshiro256(derive_seed(seed_, e, 0x3a7c0f));
    chain.states.push_back(true);  // edges start up
    chain.initialised = true;
  }
  while (chain.states.size() <= t) {
    const bool up = chain.states.back();
    const bool next =
        up ? !chain.rng.next_bool(p_fail_) : chain.rng.next_bool(p_recover_);
    chain.states.push_back(next);
  }
  return chain.states[static_cast<std::size_t>(t)];
}

void MarkovSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  for (std::uint32_t i = 0; i < count; ++i) words[i] = 0;
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (edge_present(e, t)) words[e >> 6] |= 1ULL << (e & 63);
  }
}

std::string MarkovSchedule::name() const {
  return "markov(fail=" + format_double(p_fail_, 2) +
         ",recover=" + format_double(p_recover_, 2) + ")";
}

}  // namespace pef

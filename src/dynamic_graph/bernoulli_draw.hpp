// The Bernoulli edge draw, one definition for every caller:
// BernoulliSchedule's row fill (every edge of a row) and BatchEngine's
// neighbourhood fill (the edges beside each lane's robots, across lanes).
//
// Edge e of a BernoulliSchedule is present at round t iff the first output
// of Xoshiro256(derive_seed_from_key(key_e, t)), shifted right by 11, is
// below threshold = bernoulli_threshold(p): two SplitMix64 finalizers and a
// multiply per (edge, round), no generator (see schedules.cpp).
#pragma once

#include <cstdint>

#include "common/rng.hpp"

namespace pef {

/// The edge keyed `key` is present at round t iff this value is below the
/// threshold: the first output of Xoshiro256(derive_seed_from_key(key, t))
/// >> 11, with `tb` = t * kDeriveSeedB.  T is std::uint64_t or a lane
/// vector (one edge per lane).
template <typename T>
[[nodiscard, gnu::always_inline]] constexpr T bernoulli_draw_value(
    T key, std::uint64_t tb) {
  return xoshiro256_first_output(
             splitmix64_finalize((key ^ tb) + kSplitMix64Gamma)) >>
         11;
}

}  // namespace pef

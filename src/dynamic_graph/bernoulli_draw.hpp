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

#include "common/isa.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace pef {

/// Whether the edge keyed `key` is present at round t.
[[nodiscard]] constexpr bool bernoulli_present(std::uint64_t key, Time t,
                                               std::uint64_t threshold) {
  return (xoshiro256_first_output(derive_seed_from_key(key, t)) >> 11) <
         threshold;
}

#ifdef PEF_HAS_ISA_WRAPPERS
/// splitmix64_finalize on 8 lanes.
__attribute__((target(PEF_AVX512_TARGET))) [[gnu::always_inline]] inline
__m512i splitmix64_finalize_x8(__m512i z) {
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 30)),
      _mm512_set1_epi64(static_cast<long long>(0xbf58476d1ce4e5b9ULL)));
  z = _mm512_mullo_epi64(
      _mm512_xor_si512(z, _mm512_srli_epi64(z, 27)),
      _mm512_set1_epi64(static_cast<long long>(0x94d049bb133111ebULL)));
  return _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
}

/// bernoulli_present on 8 lanes: bit j is the draw of key[j] against
/// limit[j], with `tb` = t * kDeriveSeedB in every lane.
__attribute__((target(PEF_AVX512_TARGET))) [[gnu::always_inline]] inline
__mmask8 bernoulli_present_x8(__m512i key, __m512i tb, __m512i limit) {
  const __m512i gamma =
      _mm512_set1_epi64(static_cast<long long>(kSplitMix64Gamma));
  const __m512i gamma2 =
      _mm512_set1_epi64(static_cast<long long>(2 * kSplitMix64Gamma));
  const __m512i seed = splitmix64_finalize_x8(
      _mm512_add_epi64(_mm512_xor_si512(key, tb), gamma));
  const __m512i s1 = splitmix64_finalize_x8(_mm512_add_epi64(seed, gamma2));
  // rotl(s1 * 5, 7) * 9, the multiplies as shift-and-add.
  const __m512i x = _mm512_add_epi64(s1, _mm512_slli_epi64(s1, 2));
  const __m512i r = _mm512_rol_epi64(x, 7);
  const __m512i out = _mm512_add_epi64(r, _mm512_slli_epi64(r, 3));
  return _mm512_cmplt_epu64_mask(_mm512_srli_epi64(out, 11), limit);
}
#endif

}  // namespace pef

// Runtime ISA tier selection for the kernels compiled once per tier.
//
// The hot kernels (BatchEngine's row-compare multiplicity and fused FSYNC
// pass, BernoulliSchedule's edge fill) are compiled several times —
// portable, AVX2, AVX-512 — from one always_inline body, and a wrapper picks
// the widest tier the CPU supports once per process
// (__builtin_cpu_supports).  Explicit wrappers instead of target_clones
// because (a) target_clones does not apply to templates, and (b) the
// PEF_BATCH_ISA escape hatch must reach every kernel:
// PEF_BATCH_ISA=portable|avx2|avx512 CLAMPS the tier (never raises it past
// what the CPU has), which is how the differential tests pin every tier to
// identical results and how CI exercises the dispatch on runners whose ISA
// is unknown.  All tiers compute the same integer arithmetic, so the tier
// choice can never change results — only how fast they appear.
#pragma once

#include <cstdint>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#include <immintrin.h>
#define PEF_HAS_ISA_WRAPPERS 1
// The full Skylake-and-later server subset the kernels want: f/bw/dq/vl
// covers 512-bit u32 compares, 64-bit multiplies (vpmullq), byte-plane
// blends and 256/128-bit tails.
#define PEF_AVX512_TARGET "avx512f,avx512bw,avx512dq,avx512vl"
#endif

namespace pef {

enum class IsaTier : std::uint8_t { kPortable = 0, kAvx2 = 1, kAvx512 = 2 };

/// The widest tier the CPU supports, clamped by PEF_BATCH_ISA.
[[nodiscard]] IsaTier detect_isa();

/// detect_isa(), evaluated once per process: the tier every dispatching
/// kernel runs.
[[nodiscard]] inline IsaTier active_isa() {
  static const IsaTier isa = detect_isa();
  return isa;
}

}  // namespace pef

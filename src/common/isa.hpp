// Runtime ISA tier selection for the batch kernels.
//
// Each tiered kernel (BatchEngine's passes, multiplicity, touched words,
// visit bookkeeping, Bernoulli activation fill and Bernoulli lane draw, and
// BernoulliSchedule's edge fill) is written ONCE, as an always_inline
// template over a lane tier: a struct naming the tier's vector types (GCC
// vector extensions, so `+`, `^`, `<<`, `*` and compares are plain
// operators) and the few primitives that differ between instruction sets —
// a lane compare to integer bits, masked tail loads, gathers and scatters.
// dispatch<Kernel>() compiles the body three times — portable, AVX2,
// AVX-512 — inside wrappers carrying each tier's target attribute, and runs
// the widest tier the CPU supports (__builtin_cpu_supports), once per
// process.  Explicit wrappers instead of target_clones because (a)
// target_clones does not apply to templates, and (b) the PEF_BATCH_ISA
// escape hatch must reach every kernel: PEF_BATCH_ISA=portable|avx2|avx512
// CLAMPS the tier (never raises it past what the CPU has), which is how the
// differential tests pin every tier to identical results and how CI
// exercises the dispatch on runners whose ISA is unknown.  All tiers
// compute the same integer arithmetic, so the tier choice can never change
// results — only how fast they appear.
//
// The primitives are plain `inline` functions carrying their tier's target
// attribute: as always_inline they would fail to inline into the
// untargeted generic body ("target specific option mismatch"), and without
// them GCC moves every compare lane through a general register.
#pragma once

#include <cstdint>
#include <cstring>
#include <utility>

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

/// The tier's PEF_BATCH_ISA name: "portable", "avx2" or "avx512".
[[nodiscard]] constexpr const char* to_string(IsaTier tier) {
  switch (tier) {
    case IsaTier::kPortable:
      return "portable";
    case IsaTier::kAvx2:
      return "avx2";
    case IsaTier::kAvx512:
      return "avx512";
  }
  return "portable";
}

/// The widest tier the CPU supports.
[[nodiscard]] IsaTier cpu_isa();

/// cpu_isa(), clamped by PEF_BATCH_ISA.
[[nodiscard]] IsaTier detect_isa();

/// detect_isa(), evaluated once per process: the tier every dispatching
/// kernel runs.
[[nodiscard]] inline IsaTier active_isa() {
  static const IsaTier isa = detect_isa();
  return isa;
}

// ---------------------------------------------------------------------------
// Lane tiers.  Each names its u64 vector (U64, kU64Lanes lanes), its u32
// vector (U32, kU32Lanes lanes), whether a compare lands in bits in one
// instruction (kBitCompares) and these primitives:
//   lt_bits(a, b)          bit j = a[j] < b[j] (unsigned u64 lanes)
//   eq_bits(a, b)          bit j = a[j] == b[j] (u32 lanes)
//   load_u32(p, count)     U32 of p[0..count), zero past count
//   widen_u32(p, count)    U64 of p[0..count) zero-extended, zero past count
//   gather_u64(addr, m)    lane j = *(u64*)addr[j] for the bits of m, else 0
//   scatter_u64(addr, v, m) *(u64*)addr[j] = v[j] for the bits of m, in
//                          lane order
//   store_bytes(p, bits, count) p[j] = bit j of bits, j < count
// count is at most the vector's lane count; lanes past it are never read.

/// The low `count` bits set (count <= 32).
[[gnu::always_inline]] inline std::uint32_t low_bits(std::uint32_t count) {
  return count >= 32 ? ~0u : (1u << count) - 1u;
}

/// Lanes [0, count) of p as a vector V, zero past count.
template <typename V, typename T>
[[gnu::always_inline]] inline V load_lanes(const T* p, std::uint32_t count) {
  V v = {};
  if (count == sizeof(V) / sizeof(T)) {
    std::memcpy(&v, p, sizeof v);
  } else {
    for (std::uint32_t j = 0; j < count; ++j) v[j] = p[j];
  }
  return v;
}

/// Lanes [0, count) of v into p.
template <typename V, typename T>
[[gnu::always_inline]] inline void store_lanes(T* p, V v,
                                               std::uint32_t count) {
  if (count == sizeof(V) / sizeof(T)) {
    std::memcpy(p, &v, sizeof v);
  } else {
    for (std::uint32_t j = 0; j < count; ++j) p[j] = v[j];
  }
}

/// The u64 vector V whose lane j holds j * step.
template <typename V>
[[gnu::always_inline]] inline V lane_multiples(std::uint64_t step) {
  V v = {};
  for (std::uint32_t j = 0; j < sizeof(V) / 8; ++j) v[j] = j * step;
  return v;
}

/// The portable primitives as lane loops: the portable tier's own, and
/// the defaults a vector tier keeps where it has no instruction for one.
template <typename U64, typename U32>
struct LaneLoops {
  static constexpr std::uint32_t kU64Lanes = sizeof(U64) / 8;
  static constexpr std::uint32_t kU32Lanes = sizeof(U32) / 4;

  [[gnu::always_inline]] static std::uint32_t lt_bits(U64 a, U64 b) {
    std::uint32_t bits = 0;
    for (std::uint32_t j = 0; j < kU64Lanes; ++j) {
      bits |= static_cast<std::uint32_t>(a[j] < b[j]) << j;
    }
    return bits;
  }
  [[gnu::always_inline]] static std::uint32_t eq_bits(U32 a, U32 b) {
    std::uint32_t bits = 0;
    for (std::uint32_t j = 0; j < kU32Lanes; ++j) {
      bits |= static_cast<std::uint32_t>(a[j] == b[j]) << j;
    }
    return bits;
  }
  [[gnu::always_inline]] static U32 load_u32(const std::uint32_t* p,
                                             std::uint32_t count) {
    return load_lanes<U32>(p, count);
  }
  // Fixed-trip lane loops: unrolled, each lane index is a constant.
  [[gnu::always_inline]] static U64 widen_u32(const std::uint32_t* p,
                                              std::uint32_t count) {
    U64 v = {};
    for (std::uint32_t j = 0; j < kU64Lanes; ++j) {
      if (j < count) v[j] = p[j];
    }
    return v;
  }
  [[gnu::always_inline]] static U64 gather_u64(U64 addr, std::uint32_t m) {
    U64 v = {};
    for (std::uint32_t j = 0; j < kU64Lanes; ++j) {
      if ((m >> j) & 1) {
        std::uint64_t x = 0;
        std::memcpy(&x, reinterpret_cast<const void*>(addr[j]), 8);
        v[j] = x;
      }
    }
    return v;
  }
  [[gnu::always_inline]] static void scatter_u64(U64 addr, U64 v,
                                                 std::uint32_t m) {
    for (std::uint32_t j = 0; j < kU64Lanes; ++j) {
      if ((m >> j) & 1) {
        const std::uint64_t x = v[j];
        std::memcpy(reinterpret_cast<void*>(addr[j]), &x, 8);
      }
    }
  }
  /// Eight bits to eight 0/1 bytes at a time: copy the byte of bits into
  /// every byte, keep bit j in byte j, and turn each nonzero byte into 1
  /// (adding 0x7f sets its top bit; no byte carries into the next).
  [[gnu::always_inline]] static void store_bytes(std::uint8_t* p,
                                                 std::uint32_t bits,
                                                 std::uint32_t count) {
    for (std::uint32_t j = 0; j < count; j += 8) {
      const std::uint64_t spread =
          (((((bits >> j) & 0xffu) * 0x0101010101010101ULL &
             0x8040201008040201ULL) +
            0x7f7f7f7f7f7f7f7fULL) >>
           7) &
          0x0101010101010101ULL;
      if (count - j >= 8) {
        std::memcpy(p + j, &spread, 8);
      } else {
        for (std::uint32_t b = 0; j + b < count; ++b) {
          p[j + b] = static_cast<std::uint8_t>(spread >> (8 * b));
        }
      }
    }
  }
};

using LaneU64x1 = std::uint64_t __attribute__((vector_size(8)));
using LaneU64x4 = std::uint64_t __attribute__((vector_size(32)));
using LaneU32x8 = std::uint32_t __attribute__((vector_size(32)));

/// Portable: one u64 lane — the baseline x86-64 target (SSE2) has no
/// 64-bit vector compare or multiply, so wider u64 vectors only add lane
/// shuffles to scalar work (the visit kernel measured 2x slower at 4
/// lanes) — and 8 u32 lanes, whatever the target lowers them to.
struct PortableLanes : LaneLoops<LaneU64x1, LaneU32x8> {
  using U64 = LaneU64x1;
  using U32 = LaneU32x8;
  /// eq_bits and lt_bits are lane loops here, not one instruction.
  static constexpr bool kBitCompares = false;
};

#ifdef PEF_HAS_ISA_WRAPPERS
/// AVX2: 4 u64 / 8 u32 lanes per ymm; compares leave through movemask,
/// gathers are vpgatherqq, and scatters and byte stores stay lane loops
/// (AVX2 has no scatter and no byte-masked store).
struct Avx2Lanes : LaneLoops<LaneU64x4, LaneU32x8> {
  using U64 = LaneU64x4;
  using U32 = LaneU32x8;
  static constexpr bool kBitCompares = true;

  __attribute__((target("avx2"))) static inline std::uint32_t lt_bits(
      U64 a, U64 b) {
    return static_cast<std::uint32_t>(_mm256_movemask_pd((__m256d)(a < b)));
  }
  __attribute__((target("avx2"))) static inline std::uint32_t eq_bits(
      U32 a, U32 b) {
    return static_cast<std::uint32_t>(_mm256_movemask_ps((__m256)(a == b)));
  }
  __attribute__((target("avx2"))) static inline U32 load_u32(
      const std::uint32_t* p, std::uint32_t count) {
    const __m256i live = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(count)),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    return (U32)(_mm256_maskload_epi32(reinterpret_cast<const int*>(p), live));
  }
  __attribute__((target("avx2"))) static inline U64 widen_u32(
      const std::uint32_t* p, std::uint32_t count) {
    const __m128i live = _mm_cmpgt_epi32(
        _mm_set1_epi32(static_cast<int>(count)), _mm_setr_epi32(0, 1, 2, 3));
    return (U64)(_mm256_cvtepu32_epi64(
        _mm_maskload_epi32(reinterpret_cast<const int*>(p), live)));
  }
  __attribute__((target("avx2"))) static inline U64 gather_u64(
      U64 addr, std::uint32_t m) {
    const __m256i live = _mm256_cmpgt_epi64(
        _mm256_and_si256(_mm256_set1_epi64x(m),
                         _mm256_setr_epi64x(1, 2, 4, 8)),
        _mm256_setzero_si256());
    return (U64)(_mm256_mask_i64gather_epi64(
        _mm256_setzero_si256(), nullptr, (__m256i)addr, live, 1));
  }
};

using LaneU64x8 = std::uint64_t __attribute__((vector_size(64)));
using LaneU32x16 = std::uint32_t __attribute__((vector_size(64)));

/// AVX-512: 8 u64 / 16 u32 lanes per zmm; compares land in a mask
/// register (kmov to bits), tails load under a lane mask, and gathers,
/// scatters and byte stores are one masked instruction each.
struct Avx512Lanes : LaneLoops<LaneU64x8, LaneU32x16> {
  using U64 = LaneU64x8;
  using U32 = LaneU32x16;
  static constexpr bool kBitCompares = true;

  __attribute__((target(PEF_AVX512_TARGET))) static inline std::uint32_t
  lt_bits(U64 a, U64 b) {
    return _cvtmask8_u32(_mm512_cmplt_epu64_mask((__m512i)a, (__m512i)b));
  }
  __attribute__((target(PEF_AVX512_TARGET))) static inline std::uint32_t
  eq_bits(U32 a, U32 b) {
    return _cvtmask16_u32(_mm512_cmpeq_epi32_mask((__m512i)a, (__m512i)b));
  }
  __attribute__((target(PEF_AVX512_TARGET))) static inline U32 load_u32(
      const std::uint32_t* p, std::uint32_t count) {
    return (U32)(_mm512_maskz_loadu_epi32(
        static_cast<__mmask16>(low_bits(count)), p));
  }
  __attribute__((target(PEF_AVX512_TARGET))) static inline U64 widen_u32(
      const std::uint32_t* p, std::uint32_t count) {
    const auto live = static_cast<__mmask8>(low_bits(count));
    return (U64)(_mm512_maskz_cvtepu32_epi64(
        live, _mm256_maskz_loadu_epi32(live, p)));
  }
  __attribute__((target(PEF_AVX512_TARGET))) static inline U64 gather_u64(
      U64 addr, std::uint32_t m) {
    return (U64)(_mm512_mask_i64gather_epi64(_mm512_setzero_si512(),
                                             static_cast<__mmask8>(m),
                                             (__m512i)addr, nullptr, 1));
  }
  __attribute__((target(PEF_AVX512_TARGET))) static inline void scatter_u64(
      U64 addr, U64 v, std::uint32_t m) {
    _mm512_mask_i64scatter_epi64(nullptr, static_cast<__mmask8>(m),
                                 (__m512i)addr, (__m512i)v, 1);
  }
  __attribute__((target(PEF_AVX512_TARGET))) static inline void store_bytes(
      std::uint8_t* p, std::uint32_t bits, std::uint32_t count) {
    _mm_mask_storeu_epi8(p, static_cast<__mmask16>(low_bits(count)),
                         _mm_maskz_mov_epi8(static_cast<__mmask16>(bits),
                                            _mm_set1_epi8(1)));
  }
};

template <typename Kernel, typename... Args>
__attribute__((target("avx2"))) void run_on_avx2(Args&&... args) {
  Kernel::template run<Avx2Lanes>(std::forward<Args>(args)...);
}
template <typename Kernel, typename... Args>
__attribute__((target(PEF_AVX512_TARGET))) void run_on_avx512(
    Args&&... args) {
  Kernel::template run<Avx512Lanes>(std::forward<Args>(args)...);
}
#endif

/// Run Kernel::run<Lanes>(args...) compiled for the active tier: the one
/// place a kernel's tier is chosen.  Kernel::run must be always_inline,
/// so its body is generated inside each tier's wrapper.
template <typename Kernel, typename... Args>
void dispatch(Args&&... args) {
#ifdef PEF_HAS_ISA_WRAPPERS
  switch (active_isa()) {
    case IsaTier::kAvx512:
      run_on_avx512<Kernel>(std::forward<Args>(args)...);
      return;
    case IsaTier::kAvx2:
      run_on_avx2<Kernel>(std::forward<Args>(args)...);
      return;
    case IsaTier::kPortable:
      break;
  }
#endif
  Kernel::template run<PortableLanes>(std::forward<Args>(args)...);
}

}  // namespace pef

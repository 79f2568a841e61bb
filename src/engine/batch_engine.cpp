#include "engine/batch_engine.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <optional>
#include <utility>

#include "adversary/greedy_blocker.hpp"
#include "algorithms/kernels.hpp"
#include "common/check.hpp"
#include "common/isa.hpp"
#include "dynamic_graph/bernoulli_draw.hpp"
#include "dynamic_graph/schedules.hpp"

namespace pef {
namespace {

/// The batched form of KernelState: references into the per-field state
/// planes, structurally compatible with kernel_compute / init_kernel_state.
struct KernelStateRef {
  Xoshiro256& rng;
  std::uint64_t& counter;
  std::uint8_t& has_moved;
};

/// Bind robot state at plane offset `at`.  Only random-walk batches carry a
/// real rng plane; every other kernel binds (and never touches) the dummy
/// slot 0.
template <KernelId Id>
[[gnu::always_inline]] inline KernelStateRef kernel_state_at(
    Xoshiro256* rng, std::uint64_t* counter, std::uint8_t* has_moved,
    std::size_t at) {
  if constexpr (Id == KernelId::kRandomWalk) {
    return {rng[at], counter[at], has_moved[at]};
  } else {
    return {rng[0], counter[at], has_moved[at]};
  }
}

// The multiplicity row-compare kernel: for every robot i and live lane l,
// count how many robot rows agree with row i at column l (including i
// itself); multiplicity is count > 1.  This is the single densest loop
// nest of a batch round, so it is shaped for registers: the lane axis is
// processed in compile-time-width chunks (W lanes at a time), which fully
// unrolls the per-chunk loops and promotes both the pivot row and the
// accumulators to vector registers — the j loop then touches memory once
// per row.
template <std::uint32_t W>
[[gnu::always_inline]] inline void mult_chunk(const NodeId* __restrict node,
                                              std::uint8_t* __restrict mult,
                                              std::uint8_t* __restrict tower,
                                              std::uint32_t k,
                                              std::uint32_t stride,
                                              std::uint32_t off) {
  // Two pivot rows per sweep: the j loop's row loads are the kernel's only
  // memory traffic, so sharing each row_j between two accumulating pivots
  // halves it.
  std::uint32_t i = 0;
  for (; i + 2 <= k; i += 2) {
    const NodeId* const __restrict row_a = node + std::size_t{i} * stride + off;
    const NodeId* const __restrict row_b =
        node + std::size_t{i + 1} * stride + off;
    NodeId pivot_a[W];
    NodeId pivot_b[W];
    std::uint32_t cnt_a[W];
    std::uint32_t cnt_b[W];
    for (std::uint32_t l = 0; l < W; ++l) {
      pivot_a[l] = row_a[l];
      pivot_b[l] = row_b[l];
      cnt_a[l] = 0;
      cnt_b[l] = 0;
    }
    for (std::uint32_t j = 0; j < k; ++j) {
      const NodeId* const __restrict row_j =
          node + std::size_t{j} * stride + off;
      for (std::uint32_t l = 0; l < W; ++l) {
        const NodeId v = row_j[l];
        cnt_a[l] += pivot_a[l] == v ? 1 : 0;
        cnt_b[l] += pivot_b[l] == v ? 1 : 0;
      }
    }
    std::uint8_t* const __restrict mult_a = mult + std::size_t{i} * stride + off;
    std::uint8_t* const __restrict mult_b =
        mult + std::size_t{i + 1} * stride + off;
    for (std::uint32_t l = 0; l < W; ++l) {
      const std::uint8_t ma = cnt_a[l] > 1 ? 1 : 0;
      const std::uint8_t mb = cnt_b[l] > 1 ? 1 : 0;
      mult_a[l] = ma;
      mult_b[l] = mb;
      tower[off + l] |= ma | mb;
    }
  }
  for (; i < k; ++i) {
    const NodeId* const __restrict row_i = node + std::size_t{i} * stride + off;
    NodeId pivot[W];
    std::uint32_t cnt[W];
    for (std::uint32_t l = 0; l < W; ++l) {
      pivot[l] = row_i[l];
      cnt[l] = 0;
    }
    for (std::uint32_t j = 0; j < k; ++j) {
      const NodeId* const __restrict row_j =
          node + std::size_t{j} * stride + off;
      for (std::uint32_t l = 0; l < W; ++l) {
        cnt[l] += pivot[l] == row_j[l] ? 1 : 0;
      }
    }
    std::uint8_t* const __restrict mult_i = mult + std::size_t{i} * stride + off;
    for (std::uint32_t l = 0; l < W; ++l) {
      const std::uint8_t m = cnt[l] > 1 ? 1 : 0;
      mult_i[l] = m;
      tower[off + l] |= m;
    }
  }
}

// The driver walks one LANE RANGE [off0, off0+live): callers pass
// plane-base pointers plus the range, so one multiplicity boundary can be
// sliced across worker threads (tower[] here is pre-rebased to the range).
// WMax is the leading chunk width, two u32 vectors per row: 16 for AVX2 and
// the portable tier, 32 (two zmm) for AVX-512 — one zmm per row leaves the
// compare ports half idle and measured SLOWER than the AVX2 tier.
template <std::uint32_t WMax>
[[gnu::always_inline]] inline void compute_multiplicity_rows_body(
    const NodeId* __restrict node, std::uint8_t* __restrict mult,
    std::uint8_t* __restrict tower, std::uint32_t k, std::uint32_t stride,
    std::uint32_t off0, std::uint32_t live) {
  for (std::uint32_t l = 0; l < live; ++l) tower[l] = 0;
  tower -= off0;  // mult_chunk indexes tower by absolute offset
  std::uint32_t off = off0;
  const std::uint32_t end = off0 + live;
  if constexpr (WMax >= 32) {
    for (; off + 32 <= end; off += 32) {
      mult_chunk<32>(node, mult, tower, k, stride, off);
    }
  }
  for (; off + 16 <= end; off += 16) {
    mult_chunk<16>(node, mult, tower, k, stride, off);
  }
  for (; off + 8 <= end; off += 8) {
    mult_chunk<8>(node, mult, tower, k, stride, off);
  }
  for (; off + 4 <= end; off += 4) {
    mult_chunk<4>(node, mult, tower, k, stride, off);
  }
  for (; off < end; ++off) {
    mult_chunk<1>(node, mult, tower, k, stride, off);
  }
}

// The pairwise kernel for k <= 16.  One chunk covers one u32 vector of
// lanes per robot row (16 on AVX-512, 8 below), and with k <= 16 ALL robot
// rows of a chunk fit in vector registers at once on AVX-512 — the pair
// loop then runs i<j compares with zero memory traffic.  Each compare
// yields a lane mask which is OR-accumulated for BOTH rows of the pair in
// scalar GPRs; this (a) halves the compares versus the count-equal
// formulation (multiplicity is a bit, not a count), and (b) leaves nothing
// for the compiler to spill — the autovectorized W=32 counting body loses
// ~4x to stack traffic on exactly this loop.
template <typename Lanes, std::uint32_t KC>
[[gnu::always_inline]] inline void mult_pairs(const NodeId* __restrict node,
                                              std::uint8_t* __restrict mult,
                                              std::uint8_t* __restrict tower,
                                              std::uint32_t stride,
                                              std::uint32_t off0,
                                              std::uint32_t live) {
  constexpr std::uint32_t kW = Lanes::kU32Lanes;
  tower -= off0;  // chunks index tower by absolute offset, like mult_chunk
  const std::uint32_t end = off0 + live;
  for (std::uint32_t off = off0; off < end; off += kW) {
    const std::uint32_t count = std::min(kW, end - off);
    // Lanes past `count` load as zero in every row, so they compare equal
    // everywhere — harmless, because every store below stops at `count`.
    typename Lanes::U32 rows[KC];
    for (std::uint32_t i = 0; i < KC; ++i) {
      rows[i] = Lanes::load_u32(node + std::size_t{i} * stride + off, count);
    }
    std::uint32_t acc[KC] = {};
    for (std::uint32_t i = 0; i + 1 < KC; ++i) {
      for (std::uint32_t j = i + 1; j < KC; ++j) {
        const std::uint32_t eq = Lanes::eq_bits(rows[i], rows[j]);
        acc[i] |= eq;
        acc[j] |= eq;
      }
    }
    std::uint32_t tw = 0;
    for (std::uint32_t i = 0; i < KC; ++i) {
      tw |= acc[i];
      Lanes::store_bytes(mult + std::size_t{i} * stride + off, acc[i], count);
    }
    Lanes::store_bytes(tower + off, tw, count);
  }
}

/// The multiplicity kernel: the pairwise body for 2 to 16 robots where a
/// compare lands in bits in one instruction, the counting body otherwise
/// (leading chunks of two u32 vectors per row).
struct Multiplicity {
  template <typename Lanes>
  [[gnu::always_inline]] static void run(const NodeId* node,
                                         std::uint8_t* mult,
                                         std::uint8_t* tower, std::uint32_t k,
                                         std::uint32_t stride,
                                         std::uint32_t off0,
                                         std::uint32_t live) {
    if constexpr (Lanes::kBitCompares) {
      switch (k) {
#define PEF_MULT_PAIRS_CASE(KC)                                   \
  case KC:                                                        \
    mult_pairs<Lanes, KC>(node, mult, tower, stride, off0, live); \
    return;
        PEF_MULT_PAIRS_CASE(2)
        PEF_MULT_PAIRS_CASE(3)
        PEF_MULT_PAIRS_CASE(4)
        PEF_MULT_PAIRS_CASE(5)
        PEF_MULT_PAIRS_CASE(6)
        PEF_MULT_PAIRS_CASE(7)
        PEF_MULT_PAIRS_CASE(8)
        PEF_MULT_PAIRS_CASE(9)
        PEF_MULT_PAIRS_CASE(10)
        PEF_MULT_PAIRS_CASE(11)
        PEF_MULT_PAIRS_CASE(12)
        PEF_MULT_PAIRS_CASE(13)
        PEF_MULT_PAIRS_CASE(14)
        PEF_MULT_PAIRS_CASE(15)
        PEF_MULT_PAIRS_CASE(16)
#undef PEF_MULT_PAIRS_CASE
        default:
          break;
      }
    }
    compute_multiplicity_rows_body<2 * Lanes::kU32Lanes>(node, mult, tower, k,
                                                         stride, off0, live);
  }
};

/// The two ring-edge ids adjacent to node `u` in a robot's frame: .first
/// is the pointed (ahead) edge, .second the opposite one.  Single source of
/// the ahead/behind mapping all three batched passes share (edge e joins
/// nodes e and e+1 mod n, so the clockwise edge of u is u itself).
[[gnu::always_inline]] inline std::pair<EdgeId, EdgeId> adjacent_edges(
    NodeId u, bool ahead_cw, std::uint32_t n) {
  const EdgeId edge_cw = u;
  const EdgeId edge_ccw = u == 0 ? n - 1 : u - 1;
  return ahead_cw ? std::pair<EdgeId, EdgeId>{edge_cw, edge_ccw}
                  : std::pair<EdgeId, EdgeId>{edge_ccw, edge_cw};
}

[[gnu::always_inline]] inline bool edge_present(const std::uint64_t* words,
                                                EdgeId e) {
  return (words[e >> 6] >> (e & 63)) & 1ULL;
}

/// The node one step from `u` in the given global direction.
[[gnu::always_inline]] inline NodeId step_node(NodeId u, bool clockwise,
                                               std::uint32_t n) {
  return clockwise ? (u + 1 == n ? 0 : u + 1) : (u == 0 ? n - 1 : u - 1);
}

/// Endpoint slots per lane: both ends of each listed absent edge.
constexpr std::uint32_t kAbsentEnds = 2 * BatchEngine::kSparseAbsent;

/// Everything the fused passes touch, as raw restrict-able pointers, so the
/// passes can live in free functions compiled per ISA level.  Edge words
/// come as the contiguous plane base + row stride (lane l's row is
/// edges + l * ewpr).  A pass covers the lane range [l0, l1) — one replica
/// block's slice of the planes.  Word planes are robot-major, lw words per
/// robot: bit l & 63 of word robot * lw + l / 64 belongs to lane l.
struct PassArgs {
  std::uint32_t l0 = 0;
  std::uint32_t l1 = 0;
  std::uint32_t stride = 0;
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  NodeId* node = nullptr;
  std::uint8_t* dir = nullptr;
  const std::uint8_t* cw = nullptr;
  const std::uint8_t* mult = nullptr;
  Xoshiro256* krng = nullptr;
  std::uint64_t* kcounter = nullptr;
  std::uint8_t* khas_moved = nullptr;
  const KernelSpec* spec = nullptr;
  const std::uint64_t* edges = nullptr;
  std::uint32_t ewpr = 0;
  std::uint64_t* moves = nullptr;
  std::uint32_t lw = 0;
  /// SSYNC activation / ASYNC advance words ("robot acts in lane l").
  const std::uint64_t* mask = nullptr;
  /// Split passes: the robots standing on an endpoint of one of their
  /// lane's absent edges (touched_words).
  const std::uint64_t* touched = nullptr;
  /// ASYNC: the moving words, the one-hot phase planes, and the pending
  /// Look views as edge-ahead and edge-behind words plus multiplicity
  /// bytes (a byte plane of stride `stride`, like mult).
  const std::uint64_t* moving = nullptr;
  std::uint64_t* look = nullptr;
  std::uint64_t* compute = nullptr;
  std::uint64_t* move = nullptr;
  std::uint64_t* pending_ahead = nullptr;
  std::uint64_t* pending_behind = nullptr;
  std::uint8_t* pending_mult = nullptr;
};

/// With every edge present, a kernel's Compute collapses: the edge tests
/// are constant-true, so the direction update is a pure function of the
/// multiplicity byte and the has_moved byte — straight-line byte-plane
/// arithmetic with no per-lane state loads.  These kernels take the
/// branchless two-loop body below (one byte loop for Compute, one u32
/// loop for Move); oscillating (per-lane period) and random-walk (serial
/// RNG) keep the generic body.
template <KernelId Id>
inline constexpr bool kAllFullBranchless =
    Id == KernelId::kKeepDirection || Id == KernelId::kBounce ||
    Id == KernelId::kPef1 || Id == KernelId::kPef2 ||
    Id == KernelId::kPef3Plus || Id == KernelId::kPef3PlusNoRule2 ||
    Id == KernelId::kPef3PlusNoRule3;

/// 1 iff lane l acts: always when unmasked, else its bit of `act` (the one
/// activation word covering the caller's lanes, loaded outside the lane
/// loop — which is what lets the loops below vectorize).
template <bool Masked>
[[gnu::always_inline]] inline std::uint8_t lane_on(std::uint64_t act,
                                                   std::uint32_t l) {
  if constexpr (Masked) {
    return static_cast<std::uint8_t>((act >> (l & 63)) & 1);
  } else {
    return 1;
  }
}

/// The Compute half of one robot row's branchless AllFull body, lanes
/// [lo, hi), with multiplicity bytes `m`.  LocalDirection is {0, 1} with
/// opposite == XOR 1, so "turn iff P" is dir ^= P for a 0/1 byte P, and the
/// keep/bounce/pef1/pef2 rules reduce to no Compute at all (their turn
/// conditions need an absent edge).  Masked: only the lanes set in `act`
/// Compute; the others keep their state.
template <KernelId Id, bool Masked>
[[gnu::always_inline]] inline void all_full_compute(
    std::uint8_t* __restrict d, const std::uint8_t* __restrict m,
    std::uint8_t* __restrict hm, std::uint32_t lo, std::uint32_t hi,
    std::uint64_t act) {
  if constexpr (Id == KernelId::kPef3Plus) {
    for (std::uint32_t l = lo; l < hi; ++l) {
      const std::uint8_t on = lane_on<Masked>(act, l);
      d[l] ^= static_cast<std::uint8_t>(hm[l] & m[l] & on);
      hm[l] = Masked ? static_cast<std::uint8_t>(hm[l] | on) : 1;
    }
  } else if constexpr (Id == KernelId::kPef3PlusNoRule2) {
    for (std::uint32_t l = lo; l < hi; ++l) {
      const std::uint8_t on = lane_on<Masked>(act, l);
      d[l] ^= static_cast<std::uint8_t>(m[l] & on);
      hm[l] = Masked ? static_cast<std::uint8_t>(hm[l] | on) : 1;
    }
  } else if constexpr (Id == KernelId::kPef3PlusNoRule3) {
    for (std::uint32_t l = lo; l < hi; ++l) {
      hm[l] = Masked ? static_cast<std::uint8_t>(hm[l] | lane_on<true>(act, l))
                     : 1;
    }
  }
}

/// The Move half: with both edges present a robot always crosses, so Move
/// is one modular step whose direction is a byte compare (kernel-free).
template <bool Masked>
[[gnu::always_inline]] inline void all_full_move(
    const std::uint8_t* __restrict d, const std::uint8_t* __restrict c,
    NodeId* __restrict nd, std::uint32_t n, std::uint32_t lo,
    std::uint32_t hi, std::uint64_t act) {
  for (std::uint32_t l = lo; l < hi; ++l) {
    const NodeId u = nd[l];
    const NodeId up = u + 1 == n ? 0 : u + 1;
    const NodeId dn = u == 0 ? n - 1 : u - 1;
    const NodeId to = d[l] == c[l] ? up : dn;
    nd[l] = lane_on<Masked>(act, l) != 0 ? to : u;
  }
}

/// One robot row of the branchless AllFull body: Compute, then Move.
template <KernelId Id, bool Masked>
[[gnu::always_inline]] inline void all_full_row(
    std::uint8_t* __restrict d, const std::uint8_t* __restrict m,
    std::uint8_t* __restrict hm, const std::uint8_t* __restrict c,
    NodeId* __restrict nd, std::uint32_t n, std::uint32_t lo,
    std::uint32_t hi, std::uint64_t act) {
  all_full_compute<Id, Masked>(d, m, hm, lo, hi, act);
  all_full_move<Masked>(d, c, nd, n, lo, hi, act);
}

/// The generic Look+Compute+Move of robot row `base` over lanes [lo, hi):
/// both edge tests, the kernel, and a Move across the pointed edge (in the
/// post-Compute direction) iff it is present, counted in `moves`.  The
/// planes are bound to restrict locals once per call, outside the lane
/// loop; per-bit callers pass a one-lane range.
template <KernelId Id>
[[gnu::always_inline]] inline void generic_row(const PassArgs& a,
                                               std::size_t base,
                                               std::uint32_t lo,
                                               std::uint32_t hi) {
  const std::uint32_t n = a.n;
  NodeId* const __restrict node = a.node;
  std::uint8_t* const __restrict dir = a.dir;
  const std::uint8_t* const __restrict cw = a.cw;
  const std::uint8_t* const __restrict mult = a.mult;
  Xoshiro256* const __restrict krng = a.krng;
  std::uint64_t* const __restrict kcounter = a.kcounter;
  std::uint8_t* const __restrict khas_moved = a.khas_moved;
  const KernelSpec* const __restrict spec = a.spec;
  const std::uint64_t* const __restrict edges = a.edges;
  const std::uint32_t ewpr = a.ewpr;
  for (std::uint32_t l = lo; l < hi; ++l) {
    const std::size_t at = base + l;
    const NodeId u = node[at];
    const bool ahead_cw = dir[at] == cw[at];
    const auto [ahead, behind] = adjacent_edges(u, ahead_cw, n);
    const std::uint64_t* const words = edges + std::size_t{l} * ewpr;
    View view;
    view.exists_edge_ahead = edge_present(words, ahead);
    view.exists_edge_behind = edge_present(words, behind);
    view.other_robots_on_node = mult[at] != 0;
    auto d = static_cast<LocalDirection>(dir[at]);
    kernel_compute<Id>(spec[l], view, d,
                       kernel_state_at<Id>(krng, kcounter, khas_moved, at));
    dir[at] = static_cast<std::uint8_t>(d);
    const bool move_cw = static_cast<std::uint8_t>(d) == cw[at];
    if (edge_present(words, adjacent_edges(u, move_cw, n).first)) {
      node[at] = step_node(u, move_cw, n);
      ++a.moves[l];
    }
  }
}

/// The bits of lanes [lo, hi) in their word (the range lies in one word).
[[gnu::always_inline]] inline std::uint64_t lane_bits(std::uint32_t lo,
                                                      std::uint32_t hi) {
  const std::uint32_t width = hi - lo;
  const std::uint64_t ones = width == 64 ? ~0ULL : (1ULL << width) - 1;
  return ones << (lo & 63);
}

/// Add to each lane of [l0, l1) its robots set in `words` and, when
/// `except` is non-null, clear in `except`: the moves of the robots that
/// crossed on the branchless body.
[[gnu::always_inline]] inline void credit_moves(const PassArgs& a,
                                                const std::uint64_t* words,
                                                const std::uint64_t* except) {
  for (std::uint32_t i = 0; i < a.k; ++i) {
    const std::size_t row = std::size_t{i} * a.lw;
    for (std::uint32_t lo = a.l0; lo < a.l1;) {
      const std::uint32_t hi = std::min(a.l1, (lo | 63) + 1);
      std::uint64_t word = words[row + (lo >> 6)];
      if (except != nullptr) word &= ~except[row + (lo >> 6)];
      for (std::uint32_t l = lo; l < hi; ++l) {
        a.moves[l] += (word >> (l & 63)) & 1;
      }
      lo = hi;
    }
  }
}

// ONE fused Look+Compute+Move pass, replica-stride inner loop.  Fusing is
// sound because every Look input is frozen for the round: E_t and the
// multiplicity plane never change mid-round, and a robot's Move only
// writes its own node-plane slot.  In the AllFull instantiation the body
// is pure contiguous plane arithmetic — no gathers, no branches — which
// is exactly what the replica axis was laid out for.  Without AllFull
// every robot runs generic_row.
template <KernelId Id, bool AllFull>
struct FsyncPass {
  [[gnu::always_inline]] static void run(const PassArgs& args) {
    // A local copy: the char-typed plane stores below cannot alias it, so
    // the pointers stay in registers.
    const PassArgs a = args;
    for (std::uint32_t i = 0; i < a.k; ++i) {
      const std::size_t base = std::size_t{i} * a.stride;
      if constexpr (AllFull && kAllFullBranchless<Id>) {
        // Branchless form (see kAllFullBranchless and all_full_row): each
        // robot row is two vectorizable loops over contiguous plane rows.
        all_full_row<Id, false>(a.dir + base, a.mult + base,
                                a.khas_moved + base, a.cw + base,
                                a.node + base, a.n, a.l0, a.l1, 0);
      } else if constexpr (AllFull) {
        // Oscillating and random-walk on a full E_t: constant-true edge
        // tests, and every robot crosses.
        for (std::uint32_t l = a.l0; l < a.l1; ++l) {
          const std::size_t at = base + l;
          View view;
          view.exists_edge_ahead = true;
          view.exists_edge_behind = true;
          view.other_robots_on_node = a.mult[at] != 0;
          auto d = static_cast<LocalDirection>(a.dir[at]);
          kernel_compute<Id>(
              a.spec[l], view, d,
              kernel_state_at<Id>(a.krng, a.kcounter, a.khas_moved, at));
          a.dir[at] = static_cast<std::uint8_t>(d);
          a.node[at] =
              step_node(a.node[at], static_cast<std::uint8_t>(d) == a.cw[at],
                        a.n);
        }
      } else {
        generic_row<Id>(a, base, a.l0, a.l1);
      }
    }
    if constexpr (AllFull) {
      // Every robot of every live replica moved.
      for (std::uint32_t l = a.l0; l < a.l1; ++l) a.moves[l] += a.k;
    }
  }
};

/// SSYNC and ASYNC take their split passes only over lane ranges at least
/// this wide.  On narrower ranges the word-wide masked halves run as scalar
/// loop tails and cost more than the per-bit pass over the acting robots
/// alone (t-interval, n = 64, k = 8: per-bit faster by 1.2-1.5x at 8 and
/// 16 lanes, the split pass faster by 1.2-1.7x at 32).  FSYNC, whose
/// alternative is the generic body for every robot, splits at any width.
constexpr std::uint32_t kSplitMinLanes = 32;

/// Whether most of a word's `lanes` are touched.  A crowded word of a split
/// FSYNC row (a static chain under keep-direction parks most robots on the
/// cut's endpoints) runs the sequential generic body, cheaper there than
/// the branchless body plus most robots per bit.
[[gnu::always_inline]] inline bool crowded(std::uint64_t touched,
                                           std::uint32_t lanes) {
  return 2 * static_cast<std::uint32_t>(__builtin_popcountll(touched)) >
         lanes;
}

// The split pass of a range whose rows miss a few edges (rows with at most
// kSparseAbsent absent edges, branchless kernels).  Only a robot standing
// on an endpoint of an absent edge — a `touched` one — can see a view that
// differs from the all-present one, so per robot row and 64-lane word the
// other lanes take the branchless AllFull body (masked by the acting,
// untouched lanes) and the touched ones run generic_row per bit: the
// fast path does what it can and the slow path only the rest.  Masked is
// SSYNC (act = the activation word).  PerBit treats every lane as touched:
// SSYNC's per-bit pass, for rows with more absent edges, ranges narrower
// than kSplitMinLanes and the kernels without a branchless body.
//
// Moves: generic_row counts each crossing.  FSYNC also credits every
// robot of a lane after the rows (the all-present outcome), so each robot
// that runs generic_row first gives that move back: one decrement per
// touched robot, a vector one per crowded word.  SSYNC credits only the
// untouched acting robots after the rows.  FSYNC's give-back is cheaper
// than its alternatives: crediting the untouched robots word by word adds
// an add per robot where most are untouched (t-interval), and taking back
// each blocked robot's credit in generic_row a store per robot where most
// are blocked (a static chain under keep-direction).
template <KernelId Id, bool Masked, bool PerBit>
struct SplitPass {
  static_assert(Masked || !PerBit, "dense FSYNC rows take FsyncPass");
  static_assert(PerBit || kAllFullBranchless<Id>,
                "only the branchless kernels split their rows");

  [[gnu::always_inline]] static void run(const PassArgs& args) {
    const PassArgs a = args;
    for (std::uint32_t i = 0; i < a.k; ++i) {
      const std::size_t base = std::size_t{i} * a.stride;
      for (std::uint32_t lo = a.l0; lo < a.l1;) {
        const std::uint32_t hi = std::min(a.l1, (lo | 63) + 1);
        const std::size_t mw = std::size_t{i} * a.lw + (lo >> 6);
        const std::uint64_t live = lane_bits(lo, hi);
        const std::uint64_t act = Masked ? a.mask[mw] : live;
        const std::uint64_t touched = PerBit ? live : a.touched[mw];
        if constexpr (!Masked) {
          if (crowded(touched, hi - lo)) {
            for (std::uint32_t l = lo; l < hi; ++l) --a.moves[l];
            generic_row<Id>(a, base, lo, hi);
            lo = hi;
            continue;
          }
        }
        if constexpr (!PerBit) {
          const std::uint64_t easy = act & ~touched;
          if (easy == live) {
            all_full_row<Id, false>(a.dir + base, a.mult + base,
                                    a.khas_moved + base, a.cw + base,
                                    a.node + base, a.n, lo, hi, 0);
          } else if (easy != 0) {
            all_full_row<Id, true>(a.dir + base, a.mult + base,
                                   a.khas_moved + base, a.cw + base,
                                   a.node + base, a.n, lo, hi, easy);
          }
        }
        for (std::uint64_t hard = act & touched; hard != 0; hard &= hard - 1) {
          const std::uint32_t l =
              (lo & ~63u) + static_cast<std::uint32_t>(__builtin_ctzll(hard));
          if constexpr (!Masked) --a.moves[l];
          generic_row<Id>(a, base, l, l + 1);
        }
        lo = hi;
      }
    }
    if constexpr (!Masked) {
      for (std::uint32_t l = a.l0; l < a.l1; ++l) a.moves[l] += a.k;
    } else if constexpr (!PerBit) {
      credit_moves(a, a.mask, a.touched);
    }
  }
};

// The ASYNC tick.  An advancing robot executes exactly one of Look /
// Compute / Move.  The one-hot phase planes resolve each subset by a word
// AND against the advancing mask and the matched bits transition between
// planes as whole words.  Lookers and movers are disjoint robots and a
// Move only writes its own node slot, so ONE fused pass is sound: every
// Look reads the tick-start multiplicity plane, which is recomputed only
// after the pass.  moving_words_ was snapshotted before any transition,
// so a Compute firing this tick does not also Move this tick.
//
// Each phase splits like SplitPass: a Look off the absent edges' endpoints
// records both edges present, a Compute whose pending view has both edges
// runs the Compute half of the branchless body, and an untouched Move its
// Move half — all masked word-wide; the rest go per bit.  PerBit runs
// every phase per bit, for rows with more than kSparseAbsent absent edges
// and ranges narrower than kSplitMinLanes.  Untouched movers are credited
// after the rows, per-bit ones as they cross.
template <KernelId Id, bool PerBit>
struct AsyncPass {
  [[gnu::always_inline]] static void run(const PassArgs& args) {
    const PassArgs a = args;
    for (std::uint32_t i = 0; i < a.k; ++i) {
      const std::size_t base = std::size_t{i} * a.stride;
      std::uint8_t* const d = a.dir + base;
      const std::uint8_t* const c = a.cw + base;
      std::uint8_t* const pm = a.pending_mult + base;
      for (std::uint32_t lo = a.l0; lo < a.l1;) {
        const std::uint32_t hi = std::min(a.l1, (lo | 63) + 1);
        const std::uint32_t word_base = lo & ~63u;
        const std::size_t mw = std::size_t{i} * a.lw + (lo >> 6);
        const std::uint64_t adv = a.mask[mw];
        const std::uint64_t lk = adv & a.look[mw];
        const std::uint64_t cp = adv & a.compute[mw];
        const std::uint64_t mv = a.moving[mw];
        const std::uint64_t touched = PerBit ? ~0ULL : a.touched[mw];
        std::uint64_t ahead = a.pending_ahead[mw];
        std::uint64_t behind = a.pending_behind[mw];

        if (lk != 0) {
          // Snapshot against the CURRENT edge set and configuration; the
          // view may be stale by the time Compute / Move execute.
          ahead = (ahead & ~lk) | (lk & ~touched);
          behind = (behind & ~lk) | (lk & ~touched);
          const std::uint8_t* const m = a.mult + base;
          for (std::uint64_t bits = lk & touched; bits != 0;
               bits &= bits - 1) {
            const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(bits));
            const std::uint32_t l = word_base + bit;
            const std::size_t at = base + l;
            const auto [edge_ahead, edge_behind] =
                adjacent_edges(a.node[at], d[l] == c[l], a.n);
            const std::uint64_t* const words =
                a.edges + std::size_t{l} * a.ewpr;
            ahead |= std::uint64_t{edge_present(words, edge_ahead)} << bit;
            behind |= std::uint64_t{edge_present(words, edge_behind)} << bit;
            pm[l] = m[l];
          }
          a.pending_ahead[mw] = ahead;
          a.pending_behind[mw] = behind;
          if constexpr (!PerBit) {
            const std::uint64_t easy = lk & ~touched;
            if (easy != 0) {
              for (std::uint32_t l = lo; l < hi; ++l) {
                pm[l] = lane_on<true>(easy, l) != 0 ? m[l] : pm[l];
              }
            }
          }
        }

        if (cp != 0) {
          std::uint64_t hard = cp;
          if constexpr (!PerBit && kAllFullBranchless<Id>) {
            const std::uint64_t easy = cp & ahead & behind;
            if (easy != 0) {
              all_full_compute<Id, true>(d, pm, a.khas_moved + base, lo, hi,
                                         easy);
            }
            hard &= ~easy;
          }
          for (; hard != 0; hard &= hard - 1) {
            const auto bit = static_cast<std::uint32_t>(__builtin_ctzll(hard));
            const std::uint32_t l = word_base + bit;
            const std::size_t at = base + l;
            View view;
            view.exists_edge_ahead = ((ahead >> bit) & 1) != 0;
            view.exists_edge_behind = ((behind >> bit) & 1) != 0;
            view.other_robots_on_node = pm[l] != 0;
            auto dir = static_cast<LocalDirection>(d[l]);
            kernel_compute<Id>(
                a.spec[l], view, dir,
                kernel_state_at<Id>(a.krng, a.kcounter, a.khas_moved, at));
            d[l] = static_cast<std::uint8_t>(dir);
          }
        }

        if (mv != 0) {
          if constexpr (!PerBit) {
            const std::uint64_t easy = mv & ~touched;
            if (easy != 0) {
              all_full_move<true>(d, c, a.node + base, a.n, lo, hi, easy);
            }
          }
          for (std::uint64_t bits = mv & touched; bits != 0;
               bits &= bits - 1) {
            const std::uint32_t l =
                word_base + static_cast<std::uint32_t>(__builtin_ctzll(bits));
            const std::size_t at = base + l;
            const NodeId u = a.node[at];
            const bool move_cw = d[l] == c[l];
            const std::uint64_t* const words =
                a.edges + std::size_t{l} * a.ewpr;
            if (edge_present(words, adjacent_edges(u, move_cw, a.n).first)) {
              a.node[at] = step_node(u, move_cw, a.n);
              ++a.moves[l];
            }
          }
        }

        // Word-level transitions: L -> C, C -> M, M -> L.
        a.look[mw] = (a.look[mw] & ~lk) | mv;
        a.compute[mw] = (a.compute[mw] & ~cp) | lk;
        a.move[mw] = (a.move[mw] & ~mv) | cp;
        lo = hi;
      }
    }
    if constexpr (!PerBit) {
      credit_moves(a, a.moving, a.touched);
    }
  }
};

/// A fused pass as a dispatched kernel: it names no lane type, and its
/// loops vectorize for each tier's target.
template <typename Pass>
struct OnTier {
  template <typename Lanes>
  [[gnu::always_inline]] static void run(const PassArgs& a) {
    Pass::run(a);
  }
};

/// The touched words of lanes [l0, l1) (l0 64-aligned): bit l & 63 of
/// word i * lw + l / 64 is set iff robot i of lane l stands on one of the
/// lane's listed absent-edge endpoints (`ends`: kAbsentEnds planes of
/// `stride` nodes, unused slots holding n).  One compare of each node row
/// against the first `Planes` endpoint planes — those a row of the range
/// can fill.  Bits past l1 in the last word are zero.
//
// Lane-major: each group of one u32 vector of lanes loads its endpoint
// planes once and compares every robot row against them, storing the hit
// bits straight into its byte(s) of the robot's word — bit l & 63 of a
// little-endian word is bit l & 7 of byte l >> 3 of the robot's row.
// Groups past l1, up to the end of the last word, store zero.
template <std::uint32_t Planes>
struct TouchedWords {
  template <typename Lanes>
  [[gnu::always_inline]] static void run(const NodeId* node,
                                         const NodeId* ends,
                                         std::uint32_t stride, std::uint32_t k,
                                         std::uint32_t l0, std::uint32_t l1,
                                         std::uint64_t* touched,
                                         std::uint32_t lw) {
    constexpr std::uint32_t kW = Lanes::kU32Lanes;
    const std::uint32_t end = (l1 + 63) & ~63u;
    if constexpr (Planes == 0) {
      for (std::uint32_t i = 0; i < k; ++i) {
        std::fill(touched + std::size_t{i} * lw + (l0 >> 6),
                  touched + std::size_t{i} * lw + (end >> 6), 0);
      }
    } else {
      for (std::uint32_t l = l0; l < end; l += kW) {
        const std::uint32_t count = l >= l1 ? 0 : std::min(kW, l1 - l);
        typename Lanes::U32 plane[Planes];
        for (std::uint32_t j = 0; j < Planes; ++j) {
          plane[j] = Lanes::load_u32(ends + std::size_t{j} * stride + l, count);
        }
        for (std::uint32_t i = 0; i < k; ++i) {
          const auto u =
              Lanes::load_u32(node + std::size_t{i} * stride + l, count);
          std::uint32_t hit = 0;
          for (std::uint32_t j = 0; j < Planes; ++j) {
            hit |= Lanes::eq_bits(u, plane[j]);
          }
          hit &= low_bits(count);
          std::memcpy(reinterpret_cast<unsigned char*>(touched +
                                                       std::size_t{i} * lw) +
                          (l >> 3),
                      &hit, kW / 8);
        }
      }
    }
  }
};

/// TouchedWords over the first 2 * `absent` endpoint planes, with the
/// plane count a compile-time constant of the kernel.
void touched_words(const NodeId* node, const NodeId* ends,
                   std::uint8_t absent, std::uint32_t stride,
                   std::uint32_t k, std::uint32_t l0, std::uint32_t l1,
                   std::uint64_t* touched, std::uint32_t lw) {
  static_assert(kAbsentEnds == 4, "one instantiation per absent count");
  switch (absent) {
    case 0:
      dispatch<TouchedWords<0>>(node, ends, stride, k, l0, l1, touched, lw);
      return;
    case 1:
      dispatch<TouchedWords<2>>(node, ends, stride, k, l0, l1, touched, lw);
      return;
    default:
      dispatch<TouchedWords<4>>(node, ends, stride, k, l0, l1, touched, lw);
      return;
  }
}

/// The Bernoulli activation draw: (next() >> 11) < threshold is
/// next_bool(p) (see bernoulli_threshold), and the clamp keeps p outside
/// [0, 1] (or NaN) on the same side of every draw as next_bool.
[[nodiscard]] std::uint64_t activation_threshold(double p) {
  return p > 0 ? bernoulli_threshold(std::min(p, 1.0)) : 0;
}

// The visit-cell update of observe_boundary, one u64 vector of lanes per
// step (8 on AVX-512, 4 on AVX2, 1 portable), robots in index order:
// robot i gathers the {count, last} cells (one u64 each, count in the low
// half) of its lanes at (lane, node of i), updates them and scatters them
// back.  Each lane has its own row, so a scatter never conflicts with
// itself; robot i + 1's gather sees robot i's scatter, so robots sharing a
// node keep the serial order (the second one reads gap 0).  The lanes' gap
// maxima and first visits stay in registers across the robots; the maxima
// go straight into max_gap and the first visits into fresh, for the caller
// to fold into the stats.
struct VisitCells {
  template <typename Lanes>
  [[gnu::always_inline]] static void run(const NodeId* node,
                                         std::uint32_t stride,
                                         std::uint32_t k, std::uint32_t n,
                                         std::uint64_t* cells, Time* max_gap,
                                         std::uint32_t* fresh,
                                         std::uint32_t l0, std::uint32_t l1,
                                         Time t) {
    using V = typename Lanes::U64;
    constexpr std::uint32_t kW = Lanes::kU64Lanes;
    const V rows = lane_multiples<V>(std::uint64_t{8} * n);
    const std::uint64_t stamp = std::uint64_t{static_cast<std::uint32_t>(t)}
                                << 32;
    for (std::uint32_t l = l0; l < l1; l += kW) {
      const std::uint32_t count = std::min(kW, l1 - l);
      const std::uint32_t live = low_bits(count);
      const V base =
          rows + reinterpret_cast<std::uintptr_t>(cells + std::size_t{l} * n);
      V most = load_lanes<V>(max_gap + l, count);
      V first = {};
      for (std::uint32_t i = 0; i < k; ++i) {
        const V at =
            base +
            (Lanes::widen_u32(node + std::size_t{i} * stride + l, count) << 3);
        const V cell = Lanes::gather_u64(at, live);
        const V visits = cell & 0xffffffffULL;
        const V gap = (t - (cell >> 32)) & (V)(visits != 0);
        most = most > gap ? most : gap;
        first -= (V)(visits == 0);
        // count wraps in 32 bits like the scalar cell: mask the increment
        // before stamping `last` into the high half.
        Lanes::scatter_u64(at, ((visits + 1) & 0xffffffffULL) | stamp, live);
      }
      store_lanes(max_gap + l, most, count);
      for (std::uint32_t j = 0; j < count; ++j) {
        fresh[l + j] = static_cast<std::uint32_t>(first[j]);
      }
    }
  }
};

// The Bernoulli activation fill of lanes [l0, l1) (l0 64-aligned), one u64
// vector of lanes per step (8 on AVX-512, 4 on AVX2, 1 portable): each
// vector lane steps one lane's xoshiro256** stream from the four state
// planes (word j of lane l at state[j * stride + l]; the planes are padded
// to whole 64-lane words, so a group never reads past them), so every lane
// draws exactly its scalar stream, robot by robot, and sets its hits in
// the mask words (robot i's word of lane l at words[i * lw + l / 64]).  A
// lane that drew no robot takes Activation::fill's next_below(k) fallback
// on its advanced stream.  Lanes whose kind is not Bernoulli keep their
// state untouched.
struct BernoulliActivation {
  template <typename Lanes>
  [[gnu::always_inline]] static void run(const std::uint8_t* kind,
                                         std::uint8_t bernoulli,
                                         std::uint64_t* state,
                                         const std::uint64_t* threshold,
                                         std::uint32_t stride, std::uint32_t k,
                                         std::uint32_t l0, std::uint32_t l1,
                                         std::uint64_t* words,
                                         std::uint32_t lw) {
    using V = typename Lanes::U64;
    constexpr std::uint32_t kW = Lanes::kU64Lanes;
    for (std::uint32_t l = l0; l < l1; l += kW) {
      std::uint32_t lanes = 0;
      for (std::uint32_t j = 0; j < kW && l + j < l1; ++j) {
        lanes |= static_cast<std::uint32_t>(kind[l + j] == bernoulli) << j;
      }
      if (lanes == 0) continue;
      V s[4];
      for (std::uint32_t w = 0; w < 4; ++w) {
        std::memcpy(&s[w], state + std::size_t{w} * stride + l, sizeof(V));
      }
      V limit;
      std::memcpy(&limit, threshold + l, sizeof limit);
      std::uint64_t* const word = words + (l >> 6);
      const std::uint32_t shift = l & 63;
      std::uint32_t drew = 0;
      for (std::uint32_t i = 0; i < k; ++i) {
        const V out = Xoshiro256::step(s[0], s[1], s[2], s[3]);
        const std::uint32_t hit = Lanes::lt_bits(out >> 11, limit) & lanes;
        word[std::size_t{i} * lw] |= std::uint64_t{hit} << shift;
        drew |= hit;
      }
      for (std::uint32_t w = 0; w < 4; ++w) {
        std::uint64_t* const plane = state + std::size_t{w} * stride + l;
        if (lanes == low_bits(kW)) {
          std::memcpy(plane, &s[w], sizeof(V));
        } else {
          for (std::uint32_t m = lanes; m != 0; m &= m - 1) {
            const auto j = static_cast<std::uint32_t>(__builtin_ctz(m));
            plane[j] = s[w][j];
          }
        }
      }
      for (std::uint32_t m = lanes & ~drew; m != 0; m &= m - 1) {
        const auto j = static_cast<std::uint32_t>(__builtin_ctz(m));
        std::uint64_t* const lane = state + l + j;
        Xoshiro256 rng({lane[0], lane[stride], lane[2 * std::size_t{stride}],
                        lane[3 * std::size_t{stride}]});
        word[rng.next_below(k) * lw] |= std::uint64_t{1} << (shift + j);
        for (std::uint32_t w = 0; w < 4; ++w) {
          lane[std::size_t{w} * stride] = rng.state()[w];
        }
      }
    }
  }
};

/// What the Bernoulli neighbourhood draw reads and writes.  Lane l is drawn
/// iff source[l] == bernoulli; keys[l] and threshold[l] are its schedule's
/// key table and threshold, and absent[l] receives its row's pass class:
/// `dense` if an edge beside a robot is absent, else 0.  Edge rows are
/// `ewpr` words apart from `edges`; node rows `stride` lanes apart.
struct BernoulliRows {
  const NodeId* node = nullptr;
  std::uint32_t stride = 0;
  std::uint32_t k = 0;
  std::uint32_t n = 0;
  const std::uint8_t* source = nullptr;
  std::uint8_t bernoulli = 0;
  const std::uint64_t* const* keys = nullptr;
  const std::uint64_t* threshold = nullptr;
  std::uint64_t* edges = nullptr;
  std::uint32_t ewpr = 0;
  std::uint8_t* absent = nullptr;
  std::uint8_t dense = 0;
};

// The neighbourhood draw, one u64 vector of lanes per step: one vector
// holds one (robot, side) pair of its lanes.  The keys are gathered from
// the lanes' key tables and drawn by bernoulli_draw_value against the
// lanes' thresholds; each absent draw then clears its bit in its lane's
// row, which the group first filled with every edge present.  Lanes that
// are not Bernoulli are masked out.
struct BernoulliLaneRows {
  template <typename Lanes>
  [[gnu::always_inline]] static void run(const BernoulliRows& a,
                                         std::uint32_t l0, std::uint32_t l1,
                                         Time t) {
    using V = typename Lanes::U64;
    constexpr std::uint32_t kW = Lanes::kU64Lanes;
    const std::uint64_t tb = t * kDeriveSeedB;
    const V lanes = lane_multiples<V>(1);
    const std::uint32_t tail_bits = a.n - (a.ewpr - 1) * 64;
    const std::uint64_t tail = tail_bits == 64
                                   ? ~std::uint64_t{0}
                                   : (std::uint64_t{1} << tail_bits) - 1;
    for (std::uint32_t l = l0; l < l1; l += kW) {
      const std::uint32_t count = std::min(kW, l1 - l);
      std::uint32_t drawn = 0;
      for (std::uint32_t j = 0; j < count; ++j) {
        drawn |= static_cast<std::uint32_t>(a.source[l + j] == a.bernoulli)
                 << j;
      }
      if (drawn == 0) continue;
      // Every lane's key table and threshold: the gathers below skip the
      // lanes that are not drawn.
      V keys = {};
      if (count == kW) {
        std::memcpy(&keys, a.keys + l, sizeof keys);
      } else {
        for (std::uint32_t j = 0; j < count; ++j) {
          keys[j] = reinterpret_cast<std::uintptr_t>(a.keys[l + j]);
        }
      }
      const V limit = load_lanes<V>(a.threshold + l, count);
      // Every edge present: one word of every drawn row per scatter.
      const V rows =
          lane_multiples<V>(std::uint64_t{8} * a.ewpr) +
          reinterpret_cast<std::uintptr_t>(a.edges + std::size_t{l} * a.ewpr);
      for (std::uint32_t w = 0; w + 1 < a.ewpr; ++w) {
        Lanes::scatter_u64(rows + 8 * w, V{} + ~std::uint64_t{0}, drawn);
      }
      Lanes::scatter_u64(rows + 8 * (a.ewpr - 1), V{} + tail, drawn);
      // Each draw clears its absent bits by a gather, and-not and scatter
      // of its lanes' row words: no branch waits on a draw's outcome, so
      // the multiply chains of consecutive draws overlap.
      std::uint32_t any = 0;
      for (std::uint32_t i = 0; i < a.k; ++i) {
        const V cw =
            Lanes::widen_u32(a.node + std::size_t{i} * a.stride + l, count);
        const V sides[2] = {cw, cw - 1 + ((V)(cw == 0) & a.n)};
        for (const V& e : sides) {
          const V key = Lanes::gather_u64(keys + (e << 3), drawn);
          const std::uint32_t gone =
              drawn & ~Lanes::lt_bits(bernoulli_draw_value(key, tb), limit);
          any |= gone;
          const V at = rows + ((e >> 6) << 3);
          const V bit = (((V{} + gone) >> lanes) & 1) << (e & 63);
          Lanes::scatter_u64(at, Lanes::gather_u64(at, drawn) & ~bit, drawn);
        }
      }
      for (std::uint32_t m = drawn; m != 0; m &= m - 1) {
        const auto j = static_cast<std::uint32_t>(__builtin_ctz(m));
        a.absent[l + j] = (any >> j) & 1 ? a.dense : 0;
      }
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Adaptive batch sizing (calibrated on BENCH_scaling's batch_throughput
// series; see bench/bench_scaling.cpp and BENCH_scaling.json at the repo
// root for the underlying measurements).

std::uint32_t batch_break_even(ExecutionModel, std::uint32_t,
                               std::uint32_t k) {
  // Below 4 replicas the batch runs the stamped multiplicity path and the
  // solo Engine's incremental occupancy histogram wins (the measured B=1
  // regression was ~0.94x); by B=4 the replica-stride passes amortize on
  // every model.  Huge robot counts push the crossover up: the batch pays
  // O(k^2) row compares where the solo engine pays O(k), and the
  // stamped-multiplicity regime amortizes later.
  return k >= 48 ? 8 : 4;
}

std::uint32_t preferred_batch_width(ExecutionModel, std::uint32_t n,
                                    std::uint32_t) {
  // The lane-major per-lane footprint is the visit row (8n bytes): cap
  // the batch where those rows stay inside a mid-size L2/L3 budget, and
  // never below the 64-lane block the SIMD passes and the threading
  // slices are built on.
  const std::uint64_t per_lane = std::uint64_t{8} * n;
  constexpr std::uint64_t kLaneBudgetBytes = std::uint64_t{8} << 20;
  std::uint32_t width = 256;
  while (width > 64 && std::uint64_t{width} * per_lane > kLaneBudgetBytes) {
    width /= 2;
  }
  return width;
}

BatchPlan plan_batch(ExecutionModel model, std::uint32_t n, std::uint32_t k,
                     std::uint64_t seeds, std::uint32_t max_batch) {
  BatchPlan plan;
  if (seeds < 2 || max_batch == 1) {
    plan.width = 1;
    return plan;
  }
  std::uint64_t width =
      max_batch == 0 ? preferred_batch_width(model, n, k) : max_batch;
  width = std::min<std::uint64_t>(width, seeds);
  if (width < batch_break_even(model, n, k)) {
    plan.width = 1;  // too narrow to amortize: solo Engines win
    return plan;
  }
  plan.width = static_cast<std::uint32_t>(width);
  return plan;
}

void wire_standard_replica(BatchReplica& replica, ExecutionModel model,
                           AdversaryPtr adversary, double activation_p,
                           std::uint64_t seed) {
  replica.adversary = std::move(adversary);
  replica.activation = standard_activation(model, activation_p, seed);
}

BatchEngine::BatchEngine(Ring ring, ExecutionModel model,
                         std::vector<BatchReplica> replicas,
                         BatchEngineOptions options)
    : ring_(ring), model_(model), options_(options) {
  PEF_CHECK_MSG(!replicas.empty(), "a batch needs at least one replica");
  batch_ = static_cast<std::uint32_t>(replicas.size());
  active_ = batch_;
  nodes_ = ring_.node_count();
  edge_count_ = ring_.edge_count();
  robots_ = static_cast<std::uint32_t>(replicas[0].placements.size());
  PEF_CHECK(robots_ >= 1);

  const auto kernel0 = replicas[0].algorithm
                           ? replicas[0].algorithm->kernel()
                           : std::nullopt;
  PEF_CHECK_MSG(kernel0.has_value(),
                "BatchEngine runs the devirtualized kernel path; the "
                "algorithm must provide a kernel");
  kernel_id_ = kernel0->id;

  replica_of_lane_.resize(batch_);
  lane_of_replica_.resize(batch_);
  algorithms_.resize(batch_);
  specs_.resize(batch_);
  adversaries_.resize(batch_);
  schedules_.assign(batch_, nullptr);
  mirrors_.resize(batch_);
  horizons_.resize(batch_);

  const std::size_t plane = std::size_t{robots_} * batch_;
  node_.assign(plane, 0);
  dir_.assign(plane, static_cast<std::uint8_t>(LocalDirection::kLeft));
  right_cw_.assign(plane, 0);
  mult_.assign(plane, 0);
  kcounter_.assign(plane, 0);
  khas_moved_.assign(plane, 0);
  krng_.assign(kernel_id_ == KernelId::kRandomWalk ? plane : 1,
               Xoshiro256(0));

  visits_.assign(std::size_t{batch_} * nodes_, VisitCell{});
  fresh_visits_.assign(batch_, 0);

  // Intra-cell threading: resolve the requested thread count against the
  // machine (0 = one per physical core) and spin up the pinned team only
  // when the batch is wide enough to slice into 2+ 64-lane blocks — a
  // narrow batch would just pay barrier costs.
  threads_ = options_.threads;
  if (threads_ == 0) threads_ = HwTopology::detect().physical_cores;
  if (threads_ > 1 && batch_ > 64) {
    const std::uint32_t blocks = (batch_ + 63) / 64;
    team_ = std::make_unique<WorkerTeam>(std::min(threads_, blocks));
  }

  // Multiplicity path selection (see recompute_multiplicity): row compares
  // need enough replicas to amortize and O(k^2) work a moderate k.  Wide
  // batches push the crossover out — with 16 lanes per vector compare the
  // row sweep stays cheap to larger k than the narrow-batch tuning
  // assumed.
  const std::uint32_t compare_max_k = batch_ >= 64 ? 64 : 48;
  stamped_mult_ = batch_ < 4 || robots_ >= compare_max_k;
  if (stamped_mult_) {
    stamp_epoch_.assign(std::size_t{batch_} * nodes_, 0);
    stamp_count_.assign(std::size_t{batch_} * nodes_, 0);
  }

  // Replica-block tile width for the tiled run_all: the lane-major rows a
  // round walks per lane (visit cells, plus the stamp rows when the stamp
  // multiplicity path is on) should stay L2-resident across a whole epoch
  // of rounds.  Budget ~1.5 MiB of a nominal 2 MiB L2; never below the
  // 64-lane block everything else is built on.
  {
    const std::uint64_t per_lane =
        std::uint64_t{8} * nodes_ +
        (stamped_mult_ ? std::uint64_t{8} * nodes_ : 0);
    constexpr std::uint64_t kTileBudgetBytes = std::uint64_t{3} << 19;
    std::uint32_t tile = (batch_ + 63) / 64 * 64;
    while (tile > 64 && std::uint64_t{tile} * per_lane > kTileBudgetBytes) {
      tile /= 2;
      tile = (tile + 63) / 64 * 64;
    }
    tile_lanes_ = tile;
  }

  edge_words_per_row_ = edge_word_count(edge_count_);
  edge_plane_.assign(std::size_t{batch_} * edge_words_per_row_, 0);
  edge_source_.assign(batch_, static_cast<std::uint8_t>(EdgeSource::kMirror));
  edges_.resize(batch_);
  bernoulli_keys_.assign(batch_, nullptr);
  bernoulli_threshold_.assign(batch_, 0);
  refill_at_.assign(batch_, 0);
  absent_.assign(batch_, 0);
  absent_ends_.assign(std::size_t{kAbsentEnds} * batch_, nodes_);
  moves_.assign(batch_, 0);
  tower_rounds_.assign(batch_, 0);
  tower_formations_.assign(batch_, 0);
  tower_flag_.assign(batch_, 0);
  prev_had_tower_.assign(batch_, 0);
  max_closed_gap_.assign(batch_, 0);
  stats_.assign(batch_, EngineStats{});

  lane_words_ = (batch_ + 63) / 64;
  const std::size_t mask_plane = std::size_t{robots_} * lane_words_;
  touched_words_.assign(mask_plane, 0);
  if (model_ != ExecutionModel::kFsync) {
    mask_words_.assign(mask_plane, 0);
    if (model_ == ExecutionModel::kAsync) {
      moving_words_.assign(mask_plane, 0);
      pending_ahead_.assign(mask_plane, 0);
      pending_behind_.assign(mask_plane, 0);
      pending_mult_.assign(plane, 0);
      // Every robot starts in its Look phase: the look plane carries every
      // lane's bit, the other two start empty.
      look_words_.assign(mask_plane, 0);
      compute_words_.assign(mask_plane, 0);
      move_words_.assign(mask_plane, 0);
      for (std::uint32_t i = 0; i < robots_; ++i) {
        for (std::uint32_t l = 0; l < batch_; ++l) {
          look_words_[std::size_t{i} * lane_words_ + (l >> 6)] |=
              1ULL << (l & 63);
        }
      }
    }
    act_kind_.assign(batch_, 0);
    act_stride_ = lane_words_ * 64;
    act_threshold_.assign(act_stride_, 0);
    act_state_.assign(std::size_t{4} * act_stride_, 0);
  }

  for (std::uint32_t l = 0; l < batch_; ++l) {
    replica_of_lane_[l] = l;
    lane_of_replica_[l] = l;
    init_replica(l, replicas[l]);
  }

  // With every lane schedule-backed and time-invariant (the static-ring
  // Monte-Carlo case) the per-round edge prologue has nothing to do.
  edge_refill_needed_ = false;
  for (std::uint32_t l = 0; l < batch_; ++l) {
    const auto source = static_cast<EdgeSource>(edge_source_[l]);
    edge_refill_needed_ =
        edge_refill_needed_ ||
        (source != EdgeSource::kSchedule && source != EdgeSource::kListed) ||
        refill_at_[l] != kTimeInfinity;
  }

  init_cycles();

  // The t = 0 boundary (Engine::init's observe_boundary(0)), serial —
  // construction is not a hot path.
  recompute_multiplicity(0, active_, 0);
  observe_boundary(0, 0, active_);
  for (std::uint32_t l = 0; l < batch_; ++l) {
    tower_rounds_[l] = tower_flag_[l];
    tower_formations_[l] = tower_flag_[l];
    prev_had_tower_[l] = tower_flag_[l];
  }

  // Zero-horizon replicas are done before the first step.
  retire_finished();
}

// Inline: it runs once per lane per refilled round, every round for
// greedy-blocker and mirror-path rows.
[[gnu::always_inline]] inline void BatchEngine::note_absent(
    std::uint32_t lane) {
  // Count first (a popcount per word), so a dense row — which no split
  // pass reads the endpoints of — stops as soon as it is known to be one.
  const std::uint64_t* const row = edge_row(lane);
  const auto gone_in = [&](std::uint32_t w) {
    const std::uint32_t bits =
        std::min<std::uint32_t>(64, edge_count_ - w * 64);
    return ~row[w] & (bits == 64 ? ~0ULL : (1ULL << bits) - 1);
  };
  std::uint32_t count = 0;
  for (std::uint32_t w = 0; w < edge_words_per_row_; ++w) {
    count += static_cast<std::uint32_t>(__builtin_popcountll(gone_in(w)));
    if (count > kSparseAbsent) {
      absent_[lane] = kSparseAbsent + 1;
      return;
    }
  }
  absent_[lane] = static_cast<std::uint8_t>(count);
  // Only the split passes read the endpoints, and SSYNC and ASYNC split no
  // range narrower than kSplitMinLanes: a narrower batch, which refills
  // its greedy-blocker and mirror-path rows every round, skips the
  // listing.
  if (model_ != ExecutionModel::kFsync && batch_ < kSplitMinLanes) return;
  EdgeId gone[kSparseAbsent];
  std::uint32_t listed = 0;
  for (std::uint32_t w = 0; w < edge_words_per_row_; ++w) {
    for (std::uint64_t bits = gone_in(w); bits != 0; bits &= bits - 1) {
      gone[listed++] = w * 64 + static_cast<EdgeId>(__builtin_ctzll(bits));
    }
  }
  list_ends(lane, gone, listed);
}

void BatchEngine::list_ends(std::uint32_t lane, const EdgeId* gone,
                            std::uint32_t count) {
  // Edge e joins nodes e and e + 1 mod n, so those two are the only robot
  // positions whose view an absent e changes.  Unused slots hold n, a node
  // no robot stands on.
  NodeId* const ends = absent_ends_.data() + lane;
  std::uint32_t slot = 0;
  for (std::uint32_t j = 0; j < count; ++j) {
    const EdgeId e = gone[j];
    ends[std::size_t{slot++} * batch_] = e;
    ends[std::size_t{slot++} * batch_] = e + 1 == nodes_ ? 0 : e + 1;
  }
  for (; slot < kAbsentEnds; ++slot) ends[std::size_t{slot} * batch_] = nodes_;
}

void BatchEngine::patch_row(std::uint32_t lane, Time t) {
  // The row is every edge present minus the ones slot 2j lists (j below
  // absent_): put those back, then take round t's list out.
  std::uint64_t* const row = edge_row(lane);
  const NodeId* const ends = absent_ends_.data() + lane;
  for (std::uint32_t j = 0; j < absent_[lane]; ++j) {
    const EdgeId e = ends[std::size_t{2 * j} * batch_];
    row[e >> 6] |= std::uint64_t{1} << (e & 63);
  }
  const EdgeSchedule& schedule = *schedules_[lane];
  EdgeId gone[kSparseAbsent];
  const std::optional<std::uint32_t> count = schedule.absent_edges(t, gone);
  PEF_CHECK_MSG(count.has_value() && *count <= kSparseAbsent,
                "a listing schedule must list every round");
  for (std::uint32_t j = 0; j < *count; ++j) {
    row[gone[j] >> 6] &= ~(std::uint64_t{1} << (gone[j] & 63));
  }
  absent_[lane] = static_cast<std::uint8_t>(*count);
  list_ends(lane, gone, *count);
  refill_at_[lane] = schedule.next_change(t);
}

void BatchEngine::init_replica(std::uint32_t lane, BatchReplica& replica) {
  PEF_CHECK(replica.algorithm != nullptr);
  const auto kernel = replica.algorithm->kernel();
  PEF_CHECK_MSG(kernel.has_value() && kernel->id == kernel_id_,
                "every replica of a batch must run the same KernelId");
  PEF_CHECK_MSG(replica.placements.size() == robots_,
                "every replica of a batch must place the same robot count");
  PEF_CHECK_MSG(
      batch_horizon_fits(replica.horizon),
      "batch horizons must fit 32 bits (the visit cells store u32 times)");

  PEF_CHECK_MSG(replica.activation.model == model_,
                "every replica's activation must drive the batch's model");
  PEF_CHECK(replica.adversary != nullptr);
  PEF_CHECK(replica.adversary->ring() == ring_);

  // The paper's well-initiated executions: k < n robots, towerless.
  PEF_CHECK_MSG(replica.placements.size() < nodes_,
                "well-initiated executions need k < n");
  for (std::size_t a = 0; a < replica.placements.size(); ++a) {
    for (std::size_t b = a + 1; b < replica.placements.size(); ++b) {
      PEF_CHECK_MSG(replica.placements[a].node != replica.placements[b].node,
                    "well-initiated executions start towerless");
    }
  }

  algorithms_[lane] = replica.algorithm;
  specs_[lane] = *kernel;
  adversaries_[lane] = std::move(replica.adversary);
  horizons_[lane] = replica.horizon;

  for (std::uint32_t i = 0; i < robots_; ++i) {
    const RobotPlacement& p = replica.placements[i];
    PEF_CHECK(ring_.is_valid_node(p.node));
    const std::size_t at = std::size_t{i} * batch_ + lane;
    node_[at] = p.node;
    dir_[at] = static_cast<std::uint8_t>(LocalDirection::kLeft);
    right_cw_[at] = p.chirality.right_is_clockwise() ? 1 : 0;
    init_kernel_state(
        specs_[lane], static_cast<RobotId>(i),
        KernelStateRef{
            krng_[kernel_id_ == KernelId::kRandomWalk ? at : 0],
            kcounter_[at], khas_moved_[at]});
  }

  // The lane's activation as planes (SSYNC and ASYNC; FSYNC's is full): a
  // Bernoulli lane's RNG slot starts as a copy of the activation's
  // (untouched) generator, so the batched draws replay its stream
  // bit-for-bit.
  if (model_ != ExecutionModel::kFsync) {
    const Activation& activation = replica.activation;
    act_kind_[lane] = static_cast<std::uint8_t>(activation.kind);
    act_threshold_[lane] = activation_threshold(activation.p);
    for (std::uint32_t w = 0; w < 4; ++w) {
      act_state_[std::size_t{w} * act_stride_ + lane] =
          activation.rng.state()[w];
    }
  }

  // Route the lane's edge rows (EdgeSource), the same way in every model:
  // schedule-backed lanes fill their plane row in place (E_0 here, then at
  // each next_change; a time-invariant schedule never again), or, when the
  // schedule lists its absent edges, start full and patch the listed edges
  // at those rounds; Bernoulli and greedy-blocker lanes start full and are
  // filled every round from t = 0; everything else keeps a per-lane EdgeSet
  // scratch and a gamma mirror for the virtual adversary.
  const Adversary* const adversary = adversaries_[lane].get();
  if (const auto* oblivious =
          dynamic_cast<const ObliviousAdversary*>(adversary)) {
    schedules_[lane] = oblivious->schedule().get();
  }

  // A crowded batch (2k >= n) would draw at least a whole row's worth of
  // edges beside its robots, so its Bernoulli lanes fill the whole row
  // like any schedule (n = 16, k = 12: the neighbourhood draw measured 11%
  // slower).
  const auto* bernoulli =
      2 * robots_ < edge_count_
          ? dynamic_cast<const BernoulliSchedule*>(schedules_[lane])
          : nullptr;
  const auto* blocker = dynamic_cast<const GreedyBlockerAdversary*>(adversary);
  EdgeId probe[kSparseAbsent];
  const bool listed = schedules_[lane] != nullptr &&
                      schedules_[lane]->absent_edges(0, probe).has_value();
  EdgeSource source = EdgeSource::kMirror;
  if (bernoulli != nullptr) {
    source = EdgeSource::kBernoulli;
    bernoulli_lanes_ = true;
    bernoulli_keys_[lane] = bernoulli->keys();
    bernoulli_threshold_[lane] = bernoulli->threshold();
    fill_edge_words(edge_row(lane), edge_count_);
  } else if (listed) {
    source = EdgeSource::kListed;
    fill_edge_words(edge_row(lane), edge_count_);
    patch_row(lane, 0);
  } else if (schedules_[lane] != nullptr) {
    source = EdgeSource::kSchedule;
    schedules_[lane]->edges_into_words(0, edge_row(lane));
    refill_at_[lane] = schedules_[lane]->next_change(0);
    note_absent(lane);
  } else if (blocker != nullptr) {
    source = EdgeSource::kBlocker;
    if (block_run_.empty()) {
      block_max_.assign(batch_, 0);
      block_run_.assign(std::size_t{batch_} * edge_count_, 0);
      block_absent_.assign(std::size_t{batch_} * 2 * robots_, 0);
      block_count_.assign(std::size_t{batch_} * 2, 0);
    }
    block_max_[lane] = blocker->max_absence();
    fill_edge_words(edge_row(lane), edge_count_);
  } else {
    edges_[lane] = EdgeSet(edge_count_);
    mirrors_[lane] = std::make_unique<Configuration>(snapshot_lane(lane));
    mirror_lanes_ = true;
  }
  edge_source_[lane] = static_cast<std::uint8_t>(source);
}

template <typename Fn>
void BatchEngine::parallel_lane_slices(Fn&& fn) {
  const std::uint32_t live = active_;
  if (team_ == nullptr || live <= 64) {
    if (live > 0) fn(0u, live);
    return;
  }
  // Whole 64-lane blocks per slice: mask-word ranges stay word-aligned and
  // every byte-plane range starts on a cache line, so two slices never
  // write the same line.  All parallel state is lane-indexed, the slice
  // decomposition is a pure function of (live, slots), and each slice runs
  // its lanes in ascending order — so the threaded round computes exactly
  // the serial round's values in exactly the serial per-lane order.
  const std::uint32_t blocks = (live + 63) / 64;
  const std::uint32_t slots = team_->slots();
  team_->for_each_slot([&](std::uint32_t slot) {
    const std::uint32_t b0 =
        static_cast<std::uint32_t>(std::uint64_t{blocks} * slot / slots);
    const std::uint32_t b1 =
        static_cast<std::uint32_t>(std::uint64_t{blocks} * (slot + 1) / slots);
    const std::uint32_t lo = b0 * 64;
    const std::uint32_t hi = std::min(live, b1 * 64);
    if (lo < hi) fn(lo, hi);
  });
}

void BatchEngine::recompute_multiplicity(std::uint32_t l0, std::uint32_t l1,
                                         Time boundary_t) {
  if (stamped_mult_) {
    recompute_multiplicity_stamped(l0, l1, boundary_t);
    return;
  }
  // Replica-wide, gather-free: robot i's multiplicity bit in replica l is
  // "node row i agrees with some other node row at column l"; a replica
  // holds a tower iff any robot sees multiplicity.  Deliberately O(k^2)
  // per lane: for moderate k this beats maintaining an occupancy
  // histogram, whose per-robot scattered updates defeat the replica-stride
  // layout (the stamp path above covers the narrow-batch / huge-k
  // regimes).
  dispatch<Multiplicity>(node_.data(), mult_.data(), tower_flag_.data() + l0,
                         robots_, batch_, l0, l1 - l0);
}

void BatchEngine::recompute_multiplicity_stamped(std::uint32_t l0,
                                                 std::uint32_t l1,
                                                 Time boundary_t) {
  const std::uint32_t stride = batch_;
  const std::uint32_t k = robots_;
  const std::uint32_t n = nodes_;
  // The row epoch is derived from the boundary time, not a shared counter:
  // a lane's boundaries are strictly increasing, its stamp rows travel with
  // it through swap_lanes, rows start at 0, and horizons fit 32 bits (init
  // checks), so epoch values never repeat within a lane and never collide
  // with the zero fill.  Time-derived epochs are what lets tiles and
  // threads run rounds at different times with no cross-range state.
  const auto epoch = static_cast<std::uint32_t>(boundary_t) + 1;
  const NodeId* const node = node_.data();
  std::uint8_t* const mult = mult_.data();

  // O(k) per lane: stamp each occupied (lane, node) cell with this
  // boundary's epoch and count occupants, then read each robot's count
  // back.  Scattered, so only selected (at construction) when the batch is
  // too narrow to amortize row compares or k^2 is prohibitive.
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::size_t base = std::size_t{i} * stride;
    for (std::uint32_t l = l0; l < l1; ++l) {
      const std::size_t at = std::size_t{l} * n + node[base + l];
      if (stamp_epoch_[at] == epoch) {
        ++stamp_count_[at];
      } else {
        stamp_epoch_[at] = epoch;
        stamp_count_[at] = 1;
      }
    }
  }
  for (std::uint32_t l = l0; l < l1; ++l) tower_flag_[l] = 0;
  for (std::uint32_t i = 0; i < k; ++i) {
    const std::size_t base = std::size_t{i} * stride;
    for (std::uint32_t l = l0; l < l1; ++l) {
      const std::size_t at = std::size_t{l} * n + node[base + l];
      const std::uint8_t m = stamp_count_[at] > 1 ? 1 : 0;
      mult[base + l] = m;
      tower_flag_[l] |= m;
    }
  }
}

void BatchEngine::observe_boundary(Time t, std::uint32_t l0,
                                   std::uint32_t l1) {
  const std::uint32_t n = nodes_;
  static_assert(sizeof(VisitCell) == sizeof(std::uint64_t) &&
                    offsetof(VisitCell, count) == 0 &&
                    offsetof(VisitCell, last) == sizeof(std::uint32_t),
                "the visit kernel moves a cell as one u64");
  std::uint32_t* const fresh = fresh_visits_.data();
  dispatch<VisitCells>(node_.data(), batch_, robots_, n,
                       reinterpret_cast<std::uint64_t*>(visits_.data()),
                       max_closed_gap_.data(), fresh, l0, l1, t);
  for (std::uint32_t l = l0; l < l1; ++l) {
    if (fresh[l] == 0) continue;
    EngineStats& st = stats_[l];
    st.visited_node_count += fresh[l];
    if (st.visited_node_count == n && !st.cover_time) st.cover_time = t;
  }
}

void BatchEngine::step() {
  PEF_CHECK_MSG(active_ > 0, "every replica already reached its horizon");
  // One range-local round per slice, no barriers inside.
  with_kernel_id(kernel_id_, [&]<KernelId Id>() {
    parallel_lane_slices([&](std::uint32_t l0, std::uint32_t l1) {
      switch (model_) {
        case ExecutionModel::kFsync:
          fsync_round<Id>(l0, l1, now_);
          break;
        case ExecutionModel::kSsync:
          ssync_round<Id>(l0, l1, now_);
          break;
        case ExecutionModel::kAsync:
          async_round<Id>(l0, l1, now_);
          break;
      }
    });
  });
  ++now_;
  retire_finished();
}

void BatchEngine::run_all() {
  // Temporal tiling: a round touches every live lane's visit/occupancy
  // rows, and at wide B those rows outgrow L2 — per-round sweeps stream
  // from L3 no matter how good the passes are.  Lanes are fully
  // independent simulations (state, RNG, kernel memory, mirrors,
  // activations, stamp rows are all lane-indexed), so reorder the time
  // loop instead: run each tile of tile_lanes_ lanes through a whole EPOCH
  // of rounds
  // while its rows sit in L2, then move to the next tile.  Per-lane
  // results are bit-identical to the round-major order by construction.
  // Epochs end at the nearest horizon so lane retirement (and the dense
  // live prefix the tiles walk) stays exact.
  constexpr Time kEpochRounds = 64;
  with_kernel_id(kernel_id_, [&]<KernelId Id>() {
    while (active_ > 0) {
      Time span = kEpochRounds;
      for (std::uint32_t l = 0; l < active_; ++l) {
        span = std::min(span, horizons_[l] - now_);
      }
      const Time t0 = now_;
      parallel_lane_slices([&](std::uint32_t l0, std::uint32_t l1) {
        for (std::uint32_t b0 = l0; b0 < l1; b0 += tile_lanes_) {
          const std::uint32_t b1 = std::min(l1, b0 + tile_lanes_);
          for (Time dt = 0; dt < span; ++dt) {
            switch (model_) {
              case ExecutionModel::kFsync:
                fsync_round<Id>(b0, b1, t0 + dt);
                break;
              case ExecutionModel::kSsync:
                ssync_round<Id>(b0, b1, t0 + dt);
                break;
              case ExecutionModel::kAsync:
                async_round<Id>(b0, b1, t0 + dt);
                break;
            }
          }
        }
      });
      now_ += span;
      retire_finished();
    }
  });
}

void BatchEngine::refill_edges(std::uint32_t l0, std::uint32_t l1, Time t) {
  // E_t per lane of [l0, l1), written into the lane's edge-plane row.
  // Bernoulli lanes draw the edges beside their robots, all lanes of the
  // range at once.  Oblivious lanes refill the row in place once they
  // reach the round their schedule's next_change named (time-invariant
  // ones never), listed ones by patching the bits of their old and new
  // absent edges; greedy-blocker lanes apply the rule to the planes;
  // mirror-path lanes see their gamma mirror and their own lane's mask
  // column (every robot under FSYNC, the actors under SSYNC, the firing
  // Moves under ASYNC), fill the lane's scratch set in place and copy its
  // words over.  The byte-mask scratch is local: a member would be shared
  // across worker slices.
  if (bernoulli_lanes_) draw_bernoulli_rows(l0, l1, t);
  const std::uint64_t* const mask_plane =
      model_ == ExecutionModel::kSsync   ? mask_words_.data()
      : model_ == ExecutionModel::kAsync ? moving_words_.data()
                                         : nullptr;
  ActivationMask virt_mask;
  for (std::uint32_t l = l0; l < l1; ++l) {
    switch (static_cast<EdgeSource>(edge_source_[l])) {
      case EdgeSource::kBernoulli:
        continue;
      case EdgeSource::kSchedule:
        if (t >= refill_at_[l]) {
          schedules_[l]->edges_into_words(t, edge_row(l));
          refill_at_[l] = schedules_[l]->next_change(t);
          note_absent(l);
        }
        continue;
      case EdgeSource::kListed:
        if (t >= refill_at_[l]) patch_row(l, t);
        continue;
      case EdgeSource::kBlocker:
        block_row(l, t);
        note_absent(l);
        continue;
      case EdgeSource::kMirror:
        break;
    }
    if (mask_plane != nullptr) {
      extract_lane_mask(mask_plane, l, virt_mask);
    } else {
      virt_mask.assign(robots_, 1);
    }
    adversaries_[l]->choose_edges_into(t, *mirrors_[l], virt_mask, edges_[l]);
    PEF_CHECK(edges_[l].edge_count() == edge_count_);
    std::copy_n(edges_[l].words(), edge_words_per_row_, edge_row(l));
    note_absent(l);
  }
}

void BatchEngine::draw_bernoulli_rows(std::uint32_t l0, std::uint32_t l1,
                                      Time t) {
  BernoulliRows rows;
  rows.node = node_.data();
  rows.stride = batch_;
  rows.k = robots_;
  rows.n = edge_count_;
  rows.source = edge_source_.data();
  rows.bernoulli = static_cast<std::uint8_t>(EdgeSource::kBernoulli);
  rows.keys = bernoulli_keys_.data();
  rows.threshold = bernoulli_threshold_.data();
  rows.edges = edge_plane_.data();
  rows.ewpr = edge_words_per_row_;
  rows.absent = absent_.data();
  rows.dense = kSparseAbsent + 1;
  dispatch<BernoulliLaneRows>(rows, l0, l1, t);
}

void BatchEngine::block_row(std::uint32_t lane, Time t) {
  // The row still holds last round's E_t: put back its removals, then
  // apply the rule.  Both lists are the lane's own, so worker slices share
  // no scratch.
  const std::uint32_t k = robots_;
  const std::uint32_t now = t & 1;
  const std::uint32_t before = now ^ 1;
  EdgeId* const lists = block_absent_.data() + std::size_t{lane} * 2 * k;
  const EdgeId* const previous = lists + std::size_t{before} * k;
  const std::uint32_t previous_count = block_count_[2 * lane + before];
  std::uint64_t* const row = edge_row(lane);
  for (std::uint32_t j = 0; j < previous_count; ++j) {
    row[previous[j] >> 6] |= std::uint64_t{1} << (previous[j] & 63);
  }
  EdgeId* const removed = lists + std::size_t{now} * k;
  std::uint32_t count = 0;
  greedy_block(
      k,
      [&](std::uint32_t i) {
        const std::size_t at = std::size_t{i} * batch_ + lane;
        return adjacent_edges(node_[at], dir_[at] == right_cw_[at], nodes_)
            .first;
      },
      block_max_[lane], row,
      block_run_.data() + std::size_t{lane} * edge_count_, previous,
      previous_count, [&](EdgeId e) { removed[count++] = e; });
  block_count_[2 * lane + now] = count;
}

std::uint8_t BatchEngine::max_absent(std::uint32_t l0,
                                     std::uint32_t l1) const {
  std::uint8_t most = 0;
  for (std::uint32_t l = l0; l < l1; ++l) most = std::max(most, absent_[l]);
  return most;
}

void BatchEngine::note_touched(std::uint32_t l0, std::uint32_t l1,
                               std::uint8_t absent) {
  // A lane fills its endpoint slots in order, so rows missing at most
  // `absent` edges leave every plane past the first 2 * absent at n (and
  // rows with every edge present touch no robot).
  touched_words(node_.data(), absent_ends_.data(), absent, batch_, robots_,
                l0, l1, touched_words_.data(), lane_words_);
}

template <typename Pass>
void BatchEngine::run_pass(std::uint32_t l0, std::uint32_t l1) {
  PassArgs args;
  args.l0 = l0;
  args.l1 = l1;
  args.stride = batch_;
  args.k = robots_;
  args.n = nodes_;
  args.node = node_.data();
  args.dir = dir_.data();
  args.cw = right_cw_.data();
  args.mult = mult_.data();
  args.krng = krng_.data();
  args.kcounter = kcounter_.data();
  args.khas_moved = khas_moved_.data();
  args.spec = specs_.data();
  args.edges = edge_plane_.data();
  args.ewpr = edge_words_per_row_;
  args.moves = moves_.data();
  args.lw = lane_words_;
  args.mask = mask_words_.data();
  args.touched = touched_words_.data();
  args.moving = moving_words_.data();
  args.look = look_words_.data();
  args.compute = compute_words_.data();
  args.move = move_words_.data();
  args.pending_ahead = pending_ahead_.data();
  args.pending_behind = pending_behind_.data();
  args.pending_mult = pending_mult_.data();
  dispatch<OnTier<Pass>>(args);
}

template <KernelId Id>
void BatchEngine::fsync_round(std::uint32_t l0, std::uint32_t l1, Time t) {
  if (edge_refill_needed_) refill_edges(l0, l1, t);
  // The body is decided per range by its densest row: all full takes the
  // no-edge-test instantiation (which computes the same values the generic
  // body would — the tests are constant-true there), a few absent edges
  // the split pass (branchless kernels), anything more the generic body.
  const std::uint8_t absent = max_absent(l0, l1);
  if (absent == 0) {
    run_pass<FsyncPass<Id, true>>(l0, l1);
  } else if constexpr (kAllFullBranchless<Id>) {
    if (absent <= kSparseAbsent) {
      note_touched(l0, l1, absent);
      run_pass<SplitPass<Id, false, false>>(l0, l1);
    } else {
      run_pass<FsyncPass<Id, false>>(l0, l1);
    }
  } else {
    run_pass<FsyncPass<Id, false>>(l0, l1);
  }
  recompute_multiplicity(l0, l1, t + 1);
  observe_boundary(t + 1, l0, l1);
  update_mirrors(l0, l1);
  finish_round(l0, l1);
  if (!cycles_.empty()) observe_cycles(l0, l1, t + 1);
}

void BatchEngine::fill_mask_words(std::uint32_t l0, std::uint32_t l1,
                                  Time t) {
  const std::uint32_t k = robots_;
  const std::uint32_t lw = lane_words_;
  std::uint64_t* const words = mask_words_.data();
  // Clear only this slice's word columns (l0 is 64-aligned, so [w0, w1)
  // covers exactly the slice's bits plus the final word's dead tail).
  const std::uint32_t w0 = l0 >> 6;
  const std::uint32_t w1 = (l1 + 63) >> 6;
  for (std::uint32_t i = 0; i < k; ++i) {
    std::fill(words + std::size_t{i} * lw + w0,
              words + std::size_t{i} * lw + w1, 0);
  }

  const auto bernoulli = static_cast<std::uint8_t>(ActivationKind::kBernoulli);
  for (std::uint32_t l = l0; l < l1; ++l) {
    if (act_kind_[l] != bernoulli) fill_lane_mask(l, t);
  }
  dispatch<BernoulliActivation>(act_kind_.data(), bernoulli, act_state_.data(),
                                act_threshold_.data(), act_stride_, k, l0, l1,
                                words, lw);
}

void BatchEngine::fill_lane_mask(std::uint32_t l, Time t) {
  const std::uint32_t k = robots_;
  const std::uint32_t lw = lane_words_;
  std::uint64_t* const words = mask_words_.data();
  const std::uint32_t word = l >> 6;
  const std::uint64_t bit = 1ULL << (l & 63);
  switch (static_cast<ActivationKind>(act_kind_[l])) {
    case ActivationKind::kFull:
      for (std::uint32_t i = 0; i < k; ++i) {
        words[std::size_t{i} * lw + word] |= bit;
      }
      break;
    case ActivationKind::kRoundRobin:
      words[std::size_t{t % k} * lw + word] |= bit;
      break;
    case ActivationKind::kBernoulli:
      // BernoulliActivation draws these lanes, all of a group at once.
      break;
  }
}

void BatchEngine::fill_moving_words(std::uint32_t l0, std::uint32_t l1) {
  // moving = advancing AND in-Move-phase, one AND per robot-word.
  // Snapshotted before the tick's transitions: robots whose Compute fires
  // this tick enter their Move phase but must not move until the next
  // activation.
  const std::uint32_t w0 = l0 >> 6;
  const std::uint32_t w1 = (l1 + 63) >> 6;
  const std::uint64_t* const mask = mask_words_.data();
  const std::uint64_t* const move = move_words_.data();
  std::uint64_t* const moving = moving_words_.data();
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t row = std::size_t{i} * lane_words_;
    for (std::uint32_t w = w0; w < w1; ++w) {
      moving[row + w] = mask[row + w] & move[row + w];
    }
  }
}

void BatchEngine::extract_lane_mask(const std::uint64_t* plane,
                                    std::uint32_t lane,
                                    ActivationMask& out) const {
  out.assign(robots_, 0);
  const std::uint32_t word = lane >> 6;
  const std::uint32_t shift = lane & 63;
  for (std::uint32_t i = 0; i < robots_; ++i) {
    out[i] = static_cast<std::uint8_t>(
        (plane[std::size_t{i} * lane_words_ + word] >> shift) & 1ULL);
  }
}

template <KernelId Id>
void BatchEngine::ssync_round(std::uint32_t l0, std::uint32_t l1, Time t) {
  fill_mask_words(l0, l1, t);
  if (edge_refill_needed_) refill_edges(l0, l1, t);
  // An activated robot off the absent edges' endpoints runs its FSYNC
  // AllFull round and an idle one keeps its state: the split pass.  Rows
  // with every edge present touch no robot, so it runs at any width then.
  // More absent edges, a range narrower than kSplitMinLanes or a kernel
  // without a branchless body send every activated robot per bit.
  const std::uint8_t absent = max_absent(l0, l1);
  if constexpr (kAllFullBranchless<Id>) {
    if (absent == 0 ||
        (absent <= kSparseAbsent && l1 - l0 >= kSplitMinLanes)) {
      note_touched(l0, l1, absent);
      run_pass<SplitPass<Id, true, false>>(l0, l1);
    } else {
      run_pass<SplitPass<Id, true, true>>(l0, l1);
    }
  } else {
    run_pass<SplitPass<Id, true, true>>(l0, l1);
  }
  recompute_multiplicity(l0, l1, t + 1);
  observe_boundary(t + 1, l0, l1);
  update_mirrors(l0, l1);
  finish_round(l0, l1);
  if (!cycles_.empty()) observe_cycles(l0, l1, t + 1);
}

template <KernelId Id>
void BatchEngine::async_round(std::uint32_t l0, std::uint32_t l1, Time t) {
  fill_mask_words(l0, l1, t);
  fill_moving_words(l0, l1);
  if (edge_refill_needed_) refill_edges(l0, l1, t);
  const std::uint8_t absent = max_absent(l0, l1);
  if (absent <= kSparseAbsent && l1 - l0 >= kSplitMinLanes) {
    note_touched(l0, l1, absent);
    run_pass<AsyncPass<Id, false>>(l0, l1);
  } else {
    run_pass<AsyncPass<Id, true>>(l0, l1);
  }
  recompute_multiplicity(l0, l1, t + 1);
  observe_boundary(t + 1, l0, l1);
  update_mirrors(l0, l1);
  finish_round(l0, l1);
  if (!cycles_.empty()) observe_cycles(l0, l1, t + 1);
}

void BatchEngine::update_mirrors(std::uint32_t l0, std::uint32_t l1) {
  // Lanes with a gamma mirror get it refreshed from the planes; dirs and
  // positions that did not change are no-op writes (relocate_robot
  // self-checks), so one uniform pass is correct for every model.  Lanes
  // without a mirror (a batchable adversary — the common sweep case) skip
  // this entirely, and a batch without any returns at once.
  if (!mirror_lanes_) return;
  for (std::uint32_t l = l0; l < l1; ++l) {
    Configuration* const mirror = mirrors_[l].get();
    if (mirror == nullptr) continue;
    for (std::uint32_t i = 0; i < robots_; ++i) {
      const std::size_t at = std::size_t{i} * batch_ + l;
      mirror->set_robot_dir(i, static_cast<LocalDirection>(dir_[at]));
      mirror->relocate_robot(i, node_[at]);
    }
  }
}

void BatchEngine::finish_round(std::uint32_t l0, std::uint32_t l1) {
  // A towered boundary is a tower round, and a formation when the boundary
  // before it was towerless (flags are 0 or 1).
  const std::uint8_t* const __restrict tower = tower_flag_.data();
  std::uint8_t* const __restrict prev = prev_had_tower_.data();
  Time* const __restrict rounds = tower_rounds_.data();
  std::uint64_t* const __restrict formations = tower_formations_.data();
  for (std::uint32_t l = l0; l < l1; ++l) {
    rounds[l] += tower[l];
    formations[l] += tower[l] & (prev[l] ^ 1);
    prev[l] = tower[l];
  }
}

void BatchEngine::fold_stats(std::uint32_t lane, Time t) {
  EngineStats& st = stats_[lane];
  st.rounds = t;
  st.total_moves = moves_[lane];
  st.tower_rounds = tower_rounds_[lane];
  st.tower_formations = tower_formations_[lane];
}

void BatchEngine::init_cycles() {
  if (!options_.fast_forward.enabled) return;
  bool any = false;
  cycles_.reserve(batch_);
  for (std::uint32_t l = 0; l < batch_; ++l) {
    const auto activation = model_ == ExecutionModel::kFsync
                                ? ActivationKind::kFull
                                : static_cast<ActivationKind>(act_kind_[l]);
    cycles_.emplace_back(options_.fast_forward, /*tracing=*/false,
                         schedules_[l], activation, robots_, nodes_);
    any = any || cycles_.back().eligible();
  }
  if (!any) cycles_.clear();
}

void BatchEngine::pack_lane(std::uint32_t lane,
                            const StateWords& words) const {
  const bool rng_state = kernel_id_ == KernelId::kRandomWalk;
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t at = std::size_t{i} * batch_ + lane;
    words.robot(node_[at], dir_[at], right_cw_[at], kcounter_[at],
                khas_moved_[at], rng_state ? &krng_[at] : nullptr);
  }
  if (model_ == ExecutionModel::kAsync) {
    // A robot's phase is which one-hot plane holds its lane bit.
    const std::uint64_t bit = 1ULL << (lane & 63);
    for (std::uint32_t i = 0; i < robots_; ++i) {
      const std::size_t w = std::size_t{i} * lane_words_ + (lane >> 6);
      Phase phase = Phase::kLook;
      if ((compute_words_[w] & bit) != 0) phase = Phase::kCompute;
      if ((move_words_[w] & bit) != 0) phase = Phase::kMove;
      View pending;
      pending.exists_edge_ahead = (pending_ahead_[w] & bit) != 0;
      pending.exists_edge_behind = (pending_behind_[w] & bit) != 0;
      pending.other_robots_on_node =
          pending_mult_[std::size_t{i} * batch_ + lane] != 0;
      words.phase(phase, pending);
    }
  }
}

void BatchEngine::observe_cycles(std::uint32_t l0, std::uint32_t l1,
                                 Time t) {
  for (std::uint32_t l = l0; l < l1; ++l) {
    CycleTracker& cycle = cycles_[l];
    if (!cycle.due(t)) continue;
    if (cycle.searching()) pack_lane(l, cycle.sample_words());
    fold_stats(l, t);
    const VisitCell* row = visits_.data() + std::size_t{l} * nodes_;
    // Armed lanes wait for the next epoch boundary (apply_armed_cycles);
    // the deltas do not depend on where in the cycle they are applied.
    cycle.observe(t, horizons_[l], stats_[l],
                  [row](NodeId u) { return row[u].count; });
  }
}

void BatchEngine::apply_armed_cycles() {
  for (std::uint32_t l = 0; l < active_; ++l) {
    CycleTracker& cycle = cycles_[l];
    if (!cycle.armed()) continue;
    const Time reps = cycle.take_skip(now_, horizons_[l]);
    if (reps == 0) continue;
    cycle.extrapolate(reps, stats_[l]);
    moves_[l] = stats_[l].total_moves;
    tower_rounds_[l] = stats_[l].tower_rounds;
    tower_formations_[l] = stats_[l].tower_formations;
    VisitCell* row = visits_.data() + std::size_t{l} * nodes_;
    cycle.for_each_cycle_node([&](NodeId u, std::uint64_t delta) {
      row[u].count += static_cast<std::uint32_t>(delta * reps);
    });
    // The lane keeps simulating in its local clock: it now retires after
    // the final partial period, and finalize_cycle shifts the clocked
    // stats by the skip so the retired lane lands on the full-horizon run.
    horizons_[l] -= cycle.skipped();
  }
}

void BatchEngine::finalize_cycle(std::uint32_t lane) {
  const CycleTracker& cycle = cycles_[lane];
  if (cycle.skipped() == 0) return;
  stats_[lane].rounds += cycle.skipped();  // == the replica's true horizon
  VisitCell* row = visits_.data() + std::size_t{lane} * nodes_;
  const auto skip32 = static_cast<std::uint32_t>(cycle.skipped());
  cycle.for_each_cycle_node(
      [&](NodeId u, std::uint64_t) { row[u].last += skip32; });
}

void BatchEngine::retire_finished() {
  // retire_finished runs exactly at epoch boundaries (run_all) or between
  // rounds (step), so no epoch span is in flight: safe point to fold the
  // lane counters and to shrink armed lanes' horizons.
  for (std::uint32_t l = 0; l < active_; ++l) fold_stats(l, now_);
  if (!cycles_.empty()) apply_armed_cycles();
  for (std::uint32_t l = active_; l-- > 0;) {
    if (stats_[l].rounds >= horizons_[l]) {
      if (!cycles_.empty()) finalize_cycle(l);
      const std::uint32_t last = --active_;
      if (l != last) swap_lanes(l, last);
    }
  }
}

void BatchEngine::swap_lanes(std::uint32_t a, std::uint32_t b) {
  using std::swap;
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t pa = std::size_t{i} * batch_ + a;
    const std::size_t pb = std::size_t{i} * batch_ + b;
    swap(node_[pa], node_[pb]);
    swap(dir_[pa], dir_[pb]);
    swap(right_cw_[pa], right_cw_[pb]);
    swap(mult_[pa], mult_[pb]);
    swap(kcounter_[pa], kcounter_[pb]);
    swap(khas_moved_[pa], khas_moved_[pb]);
    if (kernel_id_ == KernelId::kRandomWalk) swap(krng_[pa], krng_[pb]);
    if (model_ == ExecutionModel::kAsync) {
      swap(pending_mult_[pa], pending_mult_[pb]);
      // One-hot phase planes and pending-view edge words: swap lane a's and
      // b's bits in each plane.
      const std::size_t wa = std::size_t{i} * lane_words_ + (a >> 6);
      const std::size_t wb = std::size_t{i} * lane_words_ + (b >> 6);
      const std::uint64_t bit_a = 1ULL << (a & 63);
      const std::uint64_t bit_b = 1ULL << (b & 63);
      for (std::uint64_t* plane :
           {look_words_.data(), compute_words_.data(), move_words_.data(),
            pending_ahead_.data(), pending_behind_.data()}) {
        const bool va = (plane[wa] & bit_a) != 0;
        const bool vb = (plane[wb] & bit_b) != 0;
        if (va != vb) {
          plane[wa] ^= bit_a;
          plane[wb] ^= bit_b;
        }
      }
    }
  }
  const std::size_t ra = std::size_t{a} * nodes_;
  const std::size_t rb = std::size_t{b} * nodes_;
  std::swap_ranges(visits_.begin() + ra, visits_.begin() + ra + nodes_,
                   visits_.begin() + rb);
  if (stamped_mult_) {
    std::swap_ranges(stamp_epoch_.begin() + ra,
                     stamp_epoch_.begin() + ra + nodes_,
                     stamp_epoch_.begin() + rb);
    std::swap_ranges(stamp_count_.begin() + ra,
                     stamp_count_.begin() + ra + nodes_,
                     stamp_count_.begin() + rb);
  }
  // Edge rows are addressed by lane index, so the row CONTENTS move (the
  // mask word planes are per-round scratch, regenerated before use — no
  // swap needed there).
  const std::size_t ea = std::size_t{a} * edge_words_per_row_;
  const std::size_t eb = std::size_t{b} * edge_words_per_row_;
  std::swap_ranges(edge_plane_.begin() + ea,
                   edge_plane_.begin() + ea + edge_words_per_row_,
                   edge_plane_.begin() + eb);
  for (std::uint32_t j = 0; j < kAbsentEnds; ++j) {
    swap(absent_ends_[std::size_t{j} * batch_ + a],
         absent_ends_[std::size_t{j} * batch_ + b]);
  }
  swap(edge_source_[a], edge_source_[b]);
  swap(bernoulli_keys_[a], bernoulli_keys_[b]);
  swap(bernoulli_threshold_[a], bernoulli_threshold_[b]);
  if (!block_run_.empty()) {
    swap(block_max_[a], block_max_[b]);
    std::swap_ranges(block_run_.begin() + std::size_t{a} * edge_count_,
                     block_run_.begin() + std::size_t{a + 1} * edge_count_,
                     block_run_.begin() + std::size_t{b} * edge_count_);
    const std::size_t lists = 2 * std::size_t{robots_};
    std::swap_ranges(block_absent_.begin() + a * lists,
                     block_absent_.begin() + (a + 1) * lists,
                     block_absent_.begin() + b * lists);
    swap(block_count_[2 * a], block_count_[2 * b]);
    swap(block_count_[2 * a + 1], block_count_[2 * b + 1]);
  }

  swap(algorithms_[a], algorithms_[b]);
  swap(specs_[a], specs_[b]);
  swap(adversaries_[a], adversaries_[b]);
  swap(schedules_[a], schedules_[b]);
  swap(mirrors_[a], mirrors_[b]);
  swap(horizons_[a], horizons_[b]);
  swap(edges_[a], edges_[b]);
  swap(refill_at_[a], refill_at_[b]);
  swap(absent_[a], absent_[b]);
  swap(moves_[a], moves_[b]);
  swap(tower_rounds_[a], tower_rounds_[b]);
  swap(tower_formations_[a], tower_formations_[b]);
  swap(tower_flag_[a], tower_flag_[b]);
  swap(prev_had_tower_[a], prev_had_tower_[b]);
  swap(max_closed_gap_[a], max_closed_gap_[b]);
  swap(stats_[a], stats_[b]);
  if (!cycles_.empty()) swap(cycles_[a], cycles_[b]);
  if (model_ != ExecutionModel::kFsync) {
    swap(act_kind_[a], act_kind_[b]);
    swap(act_threshold_[a], act_threshold_[b]);
    for (std::uint32_t w = 0; w < 4; ++w) {
      swap(act_state_[std::size_t{w} * act_stride_ + a],
           act_state_[std::size_t{w} * act_stride_ + b]);
    }
  }

  const std::uint32_t replica_a = replica_of_lane_[a];
  const std::uint32_t replica_b = replica_of_lane_[b];
  replica_of_lane_[a] = replica_b;
  replica_of_lane_[b] = replica_a;
  lane_of_replica_[replica_a] = b;
  lane_of_replica_[replica_b] = a;
}

// ---------------------------------------------------------------------------
// Per-replica results.

const EngineStats& BatchEngine::stats(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  return stats_[lane_of_replica_[replica]];
}

bool BatchEngine::fast_forwarded(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  return !cycles_.empty() &&
         cycles_[lane_of_replica_[replica]].skipped() > 0;
}

Time BatchEngine::rounds_simulated(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  const std::uint32_t l = lane_of_replica_[replica];
  const Time skipped = cycles_.empty() ? Time{0} : cycles_[l].skipped();
  return stats_[l].rounds - skipped;
}

Time BatchEngine::detected_period(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  if (cycles_.empty()) return 0;
  return cycles_[lane_of_replica_[replica]].detected_period();
}

CoverageReport BatchEngine::coverage_report(std::uint32_t replica,
                                            Time suffix_window) const {
  PEF_CHECK(replica < batch_);
  const std::uint32_t l = lane_of_replica_[replica];
  const Time local_now = stats_[l].rounds;
  const std::size_t row = std::size_t{l} * nodes_;

  CoverageReport report;
  report.horizon = local_now;
  report.suffix_window =
      suffix_window == 0 ? local_now / 4 + 1 : suffix_window;
  report.visit_counts.resize(nodes_);
  for (NodeId u = 0; u < nodes_; ++u) {
    report.visit_counts[u] = visits_[row + u].count;
  }
  report.visited_node_count = stats_[l].visited_node_count;
  report.cover_time = stats_[l].cover_time;
  report.max_closed_gap = max_closed_gap_[l];

  const Time suffix_start =
      local_now >= report.suffix_window ? local_now - report.suffix_window : 0;
  for (NodeId u = 0; u < nodes_; ++u) {
    const VisitCell& cell = visits_[row + u];
    const Time open_gap = cell.count != 0 ? local_now - cell.last : local_now;
    report.max_revisit_gap =
        std::max({report.max_revisit_gap, report.max_closed_gap, open_gap});
    if (cell.count != 0 && cell.last >= suffix_start) {
      ++report.nodes_visited_in_suffix;
    }
  }
  return report;
}

NodeId BatchEngine::robot_node(std::uint32_t replica, RobotId r) const {
  PEF_CHECK(replica < batch_ && r < robots_);
  return node_[std::size_t{r} * batch_ + lane_of_replica_[replica]];
}

Configuration BatchEngine::snapshot(std::uint32_t replica) const {
  PEF_CHECK(replica < batch_);
  return snapshot_lane(lane_of_replica_[replica]);
}

Configuration BatchEngine::snapshot_lane(std::uint32_t lane) const {
  std::vector<RobotSnapshot> snaps;
  snaps.reserve(robots_);
  for (std::uint32_t i = 0; i < robots_; ++i) {
    const std::size_t at = std::size_t{i} * batch_ + lane;
    RobotSnapshot s;
    s.node = node_[at];
    s.dir = static_cast<LocalDirection>(dir_[at]);
    s.chirality = Chirality(right_cw_[at] != 0);
    snaps.push_back(std::move(s));
  }
  return Configuration(ring_, std::move(snaps));
}

}  // namespace pef

// Oblivious edge schedules: an evolving graph G = {G_0, G_1, ...} given as a
// pure function of time.  (Adaptive adversaries, which look at robot
// positions, live in src/adversary/.)
#pragma once

#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>

#include "common/types.hpp"
#include "dynamic_graph/edge_set.hpp"
#include "dynamic_graph/ring.hpp"

namespace pef {

/// Eventual periodicity of an edge schedule: for every t >= start,
/// edges_at(t + period) == edges_at(t).  period == 0 means "no known
/// recurrence" (stochastic or aperiodic families), which makes the schedule
/// ineligible for cycle-detection fast-forward.  A time-invariant schedule
/// is the degenerate case {1, 0}.
struct ScheduleRecurrence {
  Time period = 0;
  Time start = 0;
};

/// lcm of two recurrence periods, where 0 means "unknown" and is absorbing;
/// overflow also degrades to unknown rather than wrapping.
[[nodiscard]] inline Time combine_recurrence_periods(Time a, Time b) {
  if (a == 0 || b == 0) return 0;
  const Time q = a / std::gcd(a, b);
  if (b > kTimeInfinity / q) return 0;
  return q * b;
}

/// The edge-presence function of an evolving graph over a fixed ring.
/// Each family implements one fill, edges_into_words; edges_into and
/// edges_at are wrappers around it.  Implementations must be deterministic:
/// filling E_t twice for the same `t` gives the same set (stochastic
/// schedules pre-derive a per-(edge, t) stream from their seed).
class EdgeSchedule {
 public:
  virtual ~EdgeSchedule() = default;

  [[nodiscard]] virtual const Ring& ring() const = 0;

  /// Fill one raw word row ((edge_count + 63) / 64 words, EdgeSet::words()
  /// layout) with E_t, the set of edges present during round `t`.  Every
  /// word is overwritten (the row may hold a stale E_s) and the tail bits
  /// past edge_count are left clear.  BatchEngine writes each replica's
  /// edge words straight into its contiguous edge plane through it.
  virtual void edges_into_words(Time t, std::uint64_t* words) const = 0;

  /// E_t as the list of its absent edges, for families whose every E_t
  /// misses at most out.size() edges and that can name them without
  /// building the row: such a family writes its absent edges of round `t`
  /// into `out`, each once and in any order, and returns how many there
  /// are.  It then does so at every t for that out.size(), and
  /// edges_into_words(t) is every edge present minus exactly those.  The
  /// default, nullopt, says the family does not list; BatchEngine then
  /// fills and scans whole rows.  A listing lane patches its row instead:
  /// it sets the bits of its previous list and clears the new one's.
  [[nodiscard]] virtual std::optional<std::uint32_t> absent_edges(
      Time /*t*/, std::span<EdgeId> /*out*/) const {
    return std::nullopt;
  }

  /// E_t into a caller-owned scratch set sized to ring().edge_count(), with
  /// no allocation: the solo Engine's per-round fill.
  void edges_into(Time t, EdgeSet& out) const {
    PEF_CHECK(out.edge_count() == ring().edge_count());
    edges_into_words(t, out.mutable_words());
  }

  /// E_t as a fresh set.
  [[nodiscard]] EdgeSet edges_at(Time t) const {
    EdgeSet edges(ring().edge_count());
    edges_into_words(t, edges.mutable_words());
    return edges;
  }

  /// The first round after `t` whose edge set may differ from E_t:
  /// edges_at(s) == edges_at(t) for every s in [t, next_change(t)), and
  /// next_change(t) > t.  Engines refill their edge scratch only when they
  /// reach that round; kTimeInfinity means E_t holds forever, so
  /// next_change(0) == kTimeInfinity marks a time-invariant schedule.  Must
  /// never answer late (an engine would keep a stale E_t); the conservative
  /// default is the next round.
  [[nodiscard]] virtual Time next_change(Time t) const { return t + 1; }

  /// Eventual periodicity witness, if the family can prove one.  The
  /// default claims {1, 0} for time-invariant schedules and "unknown"
  /// otherwise; deterministic periodic families override it.  Must be
  /// conservative — a wrong witness would let the fast-forward layer
  /// certify a cycle that is not one.
  [[nodiscard]] virtual ScheduleRecurrence recurrence() const {
    return {next_change(0) == kTimeInfinity ? Time{1} : Time{0}, Time{0}};
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

using SchedulePtr = std::shared_ptr<const EdgeSchedule>;

}  // namespace pef

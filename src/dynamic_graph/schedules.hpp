// The oblivious schedule library.
//
// Each class below produces one family of connected-over-time (or
// deliberately *not* connected-over-time, for negative tests) evolving rings:
//
//   StaticSchedule               every edge present at every round
//   RecordedSchedule             explicit per-round edge sets (+ tail rule)
//   BernoulliSchedule            iid presence with probability p (recurrent
//                                with probability 1 => connected-over-time)
//   PeriodicSchedule             edge e present iff t mod period_e < duty_e
//                                (the "public transport" model of [16, 19])
//   TIntervalConnectedSchedule   at most one edge missing at any time; the
//                                missing edge changes every T rounds
//                                (the model of [10, 20], T-interval
//                                connectivity on a ring)
//   EventualMissingEdgeSchedule  one designated edge vanishes forever after
//                                a given round; others follow a base
//                                schedule (the hardest legal single-trace
//                                behaviour for PEF_3+: forces sentinels)
//   BoundedAbsenceSchedule       random absences, but never more than A
//                                consecutive rounds per edge
//   SurgerySchedule              G \ {(e_1, tau_1), ..., (e_k, tau_k)} — the
//                                proof-surgery operator of Section 2.1
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "dynamic_graph/schedule.hpp"

namespace pef {

// ---------------------------------------------------------------------------
// StaticSchedule

class StaticSchedule final : public EdgeSchedule {
 public:
  explicit StaticSchedule(Ring ring) : ring_(ring) {}

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time, std::uint64_t* words) const override {
    fill_edge_words(words, ring_.edge_count());
  }
  [[nodiscard]] Time next_change(Time) const override { return kTimeInfinity; }
  [[nodiscard]] std::string name() const override { return "static"; }

 private:
  Ring ring_;
};

// ---------------------------------------------------------------------------
// RecordedSchedule

/// What a RecordedSchedule returns after its explicit prefix is exhausted.
enum class TailRule : std::uint8_t {
  kAllPresent,   // every edge present after the prefix
  kRepeatLast,   // repeat the final explicit set forever
  kCyclePrefix,  // loop the prefix periodically
};

class RecordedSchedule final : public EdgeSchedule {
 public:
  RecordedSchedule(Ring ring, std::vector<EdgeSet> rounds,
                   TailRule tail = TailRule::kAllPresent);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    // kAllPresent / kRepeatLast hold one fixed set once the prefix ends;
    // kCyclePrefix is periodic from round 0 with the prefix as its period.
    const Time prefix = static_cast<Time>(rounds_.size());
    if (tail_ == TailRule::kCyclePrefix) {
      return {prefix == 0 ? Time{1} : prefix, Time{0}};
    }
    return {Time{1}, prefix};
  }
  [[nodiscard]] std::string name() const override { return "recorded"; }

  [[nodiscard]] std::size_t prefix_length() const { return rounds_.size(); }

 private:
  Ring ring_;
  std::vector<EdgeSet> rounds_;
  TailRule tail_;
};

// ---------------------------------------------------------------------------
// BernoulliSchedule

class BernoulliSchedule final : public EdgeSchedule {
 public:
  /// Each edge is present at each round independently with probability `p`:
  /// edge e is present at round t iff
  /// Xoshiro256(derive_seed(seed, e, t)).next_bool(p).
  BernoulliSchedule(Ring ring, double p, std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double presence_probability() const { return p_; }
  /// The draw's inputs, for callers that draw single edges: edge e is
  /// present at round t iff bernoulli_draw_value(keys()[e], t *
  /// kDeriveSeedB) < threshold() (bernoulli_draw.hpp).
  [[nodiscard]] const std::uint64_t* keys() const { return keys_.data(); }
  [[nodiscard]] std::uint64_t threshold() const { return threshold_; }

 private:
  Ring ring_;
  double p_;
  // The draw for (e, t) evaluated without a generator: the first output of
  // Xoshiro256(derive_seed_from_key(keys_[e], t)), shifted right by 11, is
  // below threshold_ = bernoulli_threshold(p) exactly when next_bool(p)
  // holds.
  std::uint64_t threshold_;
  // derive_seed_key(seed, e) per edge, zero-padded to a multiple of 8 so
  // the vector body loads whole 8-edge chunks.
  std::vector<std::uint64_t> keys_;
};

// ---------------------------------------------------------------------------
// PeriodicSchedule

class PeriodicSchedule final : public EdgeSchedule {
 public:
  struct EdgePattern {
    std::uint32_t period = 1;  // > 0
    std::uint32_t duty = 1;    // present iff (t + phase) % period < duty
    std::uint32_t phase = 0;
  };

  PeriodicSchedule(Ring ring, std::vector<EdgePattern> patterns);

  /// Uniform pattern for every edge, with a per-edge phase shift so the
  /// absent edge "rotates" around the ring (a simple transit-line model).
  static PeriodicSchedule rotating(Ring ring, std::uint32_t period,
                                   std::uint32_t duty);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    return {period_, Time{0}};
  }
  [[nodiscard]] std::string name() const override { return "periodic"; }

 private:
  /// Edge rows are tabulated only for P <= kMaxTabulatedRows: at most 64
  /// rows of ceil(n / 64) words keeps the table within 8 bytes per node,
  /// the size of one lane's visit row.
  static constexpr Time kMaxTabulatedRows = 64;

  /// The definition, (t + phase) % period < duty per edge.
  void literal_words(Time t, std::uint64_t* words) const;

  Ring ring_;
  std::vector<EdgePattern> patterns_;
  // P, the lcm of the edge periods (0 if it overflows): E_{t + P} == E_t.
  Time period_;
  // literal_words(r) for r in [0, P), one ceil(n / 64)-word row each, so
  // E_t is row t mod P.  Empty when P is 0 or above kMaxTabulatedRows.
  std::vector<std::uint64_t> rows_;
};

// ---------------------------------------------------------------------------
// TIntervalConnectedSchedule

class TIntervalConnectedSchedule final : public EdgeSchedule {
 public:
  /// At every round exactly one edge may be absent; which edge (or none) is
  /// redrawn uniformly every `interval` rounds from `seed`.  The resulting
  /// graph is connected at every instant (ring minus one edge is a chain)
  /// and every edge is recurrent with probability 1.
  TIntervalConnectedSchedule(Ring ring, Time interval, std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  /// The epoch's pick, or nothing when it drew "no edge missing"; nullopt
  /// for an empty `out`.
  [[nodiscard]] std::optional<std::uint32_t> absent_edges(
      Time t, std::span<EdgeId> out) const override;
  /// The next multiple of the interval (the pick is redrawn there),
  /// kTimeInfinity when that multiple does not fit a Time.
  [[nodiscard]] Time next_change(Time t) const override;
  [[nodiscard]] std::string name() const override;

 private:
  /// Xoshiro256(derive_seed(seed, t / interval)).next_below(n + 1): the
  /// absent edge of round t's epoch, or n for none.
  [[nodiscard]] std::uint64_t pick(Time t) const;

  Ring ring_;
  Time interval_;
  // derive_seed_prefix(seed) and the draw's bound n + 1, taken once: an
  // epoch's pick then costs three SplitMix64 mixes and one division unless
  // its first output is rejected.
  std::uint64_t seed_prefix_;
  SeededBelow below_;
};

// ---------------------------------------------------------------------------
// EventualMissingEdgeSchedule

class EventualMissingEdgeSchedule final : public EdgeSchedule {
 public:
  /// `missing_edge` follows `base` before `vanish_time` and is absent forever
  /// afterwards; all other edges follow `base`.  If `base` is
  /// connected-over-time then so is the result (a ring minus one edge is a
  /// connected chain).
  EventualMissingEdgeSchedule(SchedulePtr base, EdgeId missing_edge,
                              Time vanish_time);

  [[nodiscard]] const Ring& ring() const override { return base_->ring(); }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] Time next_change(Time t) const override {
    // The overlay changes once, at the vanish.
    const Time next = base_->next_change(t);
    return t < vanish_time_ ? std::min(next, vanish_time_) : next;
  }
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    // After the vanish the overlay is constant, so the base's periodicity
    // carries through once both tails are in effect.
    const ScheduleRecurrence base = base_->recurrence();
    return {base.period, std::max(base.start, vanish_time_)};
  }
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] EdgeId missing_edge() const { return missing_edge_; }
  [[nodiscard]] Time vanish_time() const { return vanish_time_; }

 private:
  SchedulePtr base_;
  EdgeId missing_edge_;
  Time vanish_time_;
};

// ---------------------------------------------------------------------------
// BoundedAbsenceSchedule

class BoundedAbsenceSchedule final : public EdgeSchedule {
 public:
  /// Each edge alternates presence runs and absence runs; absence runs are
  /// uniform in [1, max_absence], presence runs uniform in [1, max_presence].
  /// Guarantees every edge is recurrent (connected-over-time by construction).
  BoundedAbsenceSchedule(Ring ring, Time max_absence, Time max_presence,
                         std::uint64_t seed);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] std::string name() const override;

 private:
  [[nodiscard]] bool edge_present(EdgeId e, Time t) const;

  Ring ring_;
  Time max_absence_;
  Time max_presence_;
  std::uint64_t seed_;

  // Run-length decoding per edge, one cursor each: runs alternate
  // present/absent starting with present, lengths drawn from the edge's
  // own stream.  The cursor holds the run [start, end) containing the last
  // query and the generator positioned after that run's draw, so memory
  // stays O(n) at any horizon.  Not thread-safe: each schedule belongs to
  // one run.
  struct EdgeCursor {
    Time start = 0;
    Time end = 0;
    bool present = true;
    Xoshiro256 rng{0};
  };
  /// Rewind edge `e`'s cursor to its first run.
  void restart(EdgeId e) const;
  mutable std::vector<EdgeCursor> cursors_;
};

// ---------------------------------------------------------------------------
// SurgerySchedule

/// A half-open-interval edge removal: edge `edge` absent during
/// [from, to] (inclusive bounds, as in the paper's (e, tau) notation).
struct Removal {
  EdgeId edge = kInvalidEdge;
  Time from = 0;
  Time to = 0;  // inclusive; use kTimeInfinity for "forever after `from`"
};

class SurgerySchedule final : public EdgeSchedule {
 public:
  /// The paper's G \ {(e_1, tau_1), ...} operator: `base` with each listed
  /// edge forced absent during its listed interval(s).
  SurgerySchedule(SchedulePtr base, std::vector<Removal> removals);

  [[nodiscard]] const Ring& ring() const override { return base_->ring(); }
  void edges_into_words(Time t, std::uint64_t* words) const override;
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    // A finite removal stops mattering after `to`; an infinite one is a
    // constant overlay from `from` on.  Past the latest such boundary the
    // base's periodicity is undisturbed.
    ScheduleRecurrence rec = base_->recurrence();
    for (const Removal& removal : removals_) {
      rec.start = std::max(rec.start, removal.to == kTimeInfinity
                                          ? removal.from
                                          : removal.to + 1);
    }
    return rec;
  }
  [[nodiscard]] std::string name() const override { return "surgery"; }

  [[nodiscard]] const std::vector<Removal>& removals() const {
    return removals_;
  }

 private:
  SchedulePtr base_;
  std::vector<Removal> removals_;
};

}  // namespace pef

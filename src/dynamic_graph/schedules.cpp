#include "dynamic_graph/schedules.hpp"

#include <algorithm>
#include <cstring>

#include "common/check.hpp"
#include "common/isa.hpp"
#include "common/table.hpp"
#include "dynamic_graph/bernoulli_draw.hpp"

namespace pef {

// ---------------------------------------------------------------------------
// RecordedSchedule

RecordedSchedule::RecordedSchedule(Ring ring, std::vector<EdgeSet> rounds,
                                   TailRule tail)
    : ring_(ring), rounds_(std::move(rounds)), tail_(tail) {
  for (const EdgeSet& s : rounds_) {
    PEF_CHECK(s.edge_count() == ring_.edge_count());
  }
  if (tail_ == TailRule::kRepeatLast || tail_ == TailRule::kCyclePrefix) {
    PEF_CHECK(!rounds_.empty());
  }
}

void RecordedSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  if (t >= rounds_.size() && tail_ == TailRule::kAllPresent) {
    fill_edge_words(words, ring_.edge_count());
    return;
  }
  // Inside the prefix both picks are t; past it, kRepeatLast holds the
  // final set and kCyclePrefix loops the prefix.
  const Time round = tail_ == TailRule::kRepeatLast
                         ? std::min<Time>(t, rounds_.size() - 1)
                         : t % rounds_.size();
  std::copy_n(rounds_[static_cast<std::size_t>(round)].words(),
              edge_word_count(ring_.edge_count()), words);
}

// ---------------------------------------------------------------------------
// BernoulliSchedule
//
// Evaluated literally, Xoshiro256(derive_seed(seed, e, t)).next_bool(p)
// costs seven SplitMix64 mixes and a generator step per (edge, round).
// Three exact identities cut that to two mixes with bit-identical results:
//   * derive_seed(seed, e, t) is derive_seed_from_key(key_e, t), where
//     key_e = derive_seed_key(seed, e) depends only on the edge, so the
//     constructor tabulates one key per edge;
//   * xoshiro256**'s first output reads only state[1], the second
//     SplitMix64 output of its seed (xoshiro256_first_output);
//   * next_bool(p) is an integer compare of the output's top 53 bits
//     against bernoulli_threshold(p).
// The draw itself is bernoulli_draw_value (bernoulli_draw.hpp), which
// BatchEngine also draws for the edges beside its lanes' robots.

namespace {

/// The row fill, W edges per step (W = the tier's u64 lanes: 8 on
/// AVX-512, where vpmullq does the multiplies, 4 on AVX2, where each
/// 64-bit multiply is three vpmuludq, and 1 portable).  Reads whole
/// W-key chunks (keys are padded to a multiple of 8) and masks the bits
/// past n off the last word.
struct BernoulliWords {
  template <typename Lanes>
  [[gnu::always_inline]] static void run(const std::uint64_t* keys,
                                         std::uint32_t n, Time t,
                                         std::uint64_t threshold,
                                         std::uint64_t* words) {
    using V = typename Lanes::U64;
    constexpr std::uint32_t kW = Lanes::kU64Lanes;
    const V limit = V{} + threshold;
    const std::uint64_t tb = t * kDeriveSeedB;
    for (std::uint32_t base = 0; base < n; base += 64) {
      const std::uint32_t bits = std::min<std::uint32_t>(64, n - base);
      std::uint64_t word = 0;
      for (std::uint32_t j = 0; j < bits; j += kW) {
        V key;
        std::memcpy(&key, keys + base + j, sizeof key);
        word |= std::uint64_t{Lanes::lt_bits(bernoulli_draw_value(key, tb),
                                             limit)}
                << j;
      }
      words[base >> 6] =
          bits == 64 ? word : word & ((std::uint64_t{1} << bits) - 1);
    }
  }
};

}  // namespace

BernoulliSchedule::BernoulliSchedule(Ring ring, double p, std::uint64_t seed)
    : ring_(ring),
      p_(p),
      threshold_(0),
      keys_((ring.edge_count() + 7) / 8 * 8) {
  PEF_CHECK(p >= 0.0 && p <= 1.0);
  threshold_ = bernoulli_threshold(p);
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    keys_[e] = derive_seed_key(seed, e);
  }
}

void BernoulliSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  dispatch<BernoulliWords>(keys_.data(), ring_.edge_count(), t, threshold_,
                           words);
}

std::string BernoulliSchedule::name() const {
  return "bernoulli(p=" + format_double(p_, 2) + ")";
}

// ---------------------------------------------------------------------------
// PeriodicSchedule

PeriodicSchedule::PeriodicSchedule(Ring ring,
                                   std::vector<EdgePattern> patterns)
    : ring_(ring), patterns_(std::move(patterns)), period_(1) {
  PEF_CHECK(patterns_.size() == ring_.edge_count());
  for (const EdgePattern& p : patterns_) {
    PEF_CHECK(p.period > 0);
    PEF_CHECK(p.duty <= p.period);
    period_ = combine_recurrence_periods(period_, p.period);
  }
  if (period_ == 0 || period_ > kMaxTabulatedRows) return;
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  rows_.resize(static_cast<std::size_t>(period_) * count);
  for (Time r = 0; r < period_; ++r) {
    literal_words(r, rows_.data() + r * count);
  }
}

PeriodicSchedule PeriodicSchedule::rotating(Ring ring, std::uint32_t period,
                                            std::uint32_t duty) {
  PEF_CHECK(period > 0);
  std::vector<EdgePattern> patterns(ring.edge_count());
  for (EdgeId e = 0; e < ring.edge_count(); ++e) {
    patterns[e] = EdgePattern{period, duty, e % period};
  }
  return PeriodicSchedule(ring, std::move(patterns));
}

void PeriodicSchedule::edges_into_words(Time t, std::uint64_t* words) const {
  if (rows_.empty()) {
    literal_words(t, words);
    return;
  }
  // Every edge period divides P, so t and t mod P agree on every pattern.
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  std::copy_n(rows_.data() + (t % period_) * count, count, words);
}

void PeriodicSchedule::literal_words(Time t, std::uint64_t* words) const {
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  for (std::uint32_t i = 0; i < count; ++i) words[i] = 0;
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    const EdgePattern& p = patterns_[e];
    if ((t + p.phase) % p.period < p.duty) words[e >> 6] |= 1ULL << (e & 63);
  }
}

// ---------------------------------------------------------------------------
// TIntervalConnectedSchedule

TIntervalConnectedSchedule::TIntervalConnectedSchedule(Ring ring,
                                                       Time interval,
                                                       std::uint64_t seed)
    : ring_(ring),
      interval_(interval),
      seed_prefix_(derive_seed_prefix(seed)),
      below_(std::uint64_t{ring.edge_count()} + 1) {
  PEF_CHECK(interval > 0);
}

std::uint64_t TIntervalConnectedSchedule::pick(Time t) const {
  // derive_seed(seed, epoch) from the prefix; value n means "no edge
  // missing this epoch".
  const std::uint64_t key =
      derive_seed_key_from_prefix(seed_prefix_, t / interval_);
  return below_(derive_seed_from_key(key, 0));
}

void TIntervalConnectedSchedule::edges_into_words(Time t,
                                                  std::uint64_t* words) const {
  const std::uint64_t e = pick(t);
  fill_edge_words(words, ring_.edge_count());
  if (e < ring_.edge_count()) words[e >> 6] &= ~(1ULL << (e & 63));
}

std::optional<std::uint32_t> TIntervalConnectedSchedule::absent_edges(
    Time t, std::span<EdgeId> out) const {
  if (out.empty()) return std::nullopt;
  const std::uint64_t e = pick(t);
  if (e == ring_.edge_count()) return 0;
  out[0] = static_cast<EdgeId>(e);
  return 1;
}

Time TIntervalConnectedSchedule::next_change(Time t) const {
  const Time epoch = t / interval_;
  if (epoch >= kTimeInfinity / interval_) return kTimeInfinity;
  return (epoch + 1) * interval_;
}

std::string TIntervalConnectedSchedule::name() const {
  return "t-interval(T=" + std::to_string(interval_) + ")";
}

// ---------------------------------------------------------------------------
// EventualMissingEdgeSchedule

EventualMissingEdgeSchedule::EventualMissingEdgeSchedule(SchedulePtr base,
                                                         EdgeId missing_edge,
                                                         Time vanish_time)
    : base_(std::move(base)),
      missing_edge_(missing_edge),
      vanish_time_(vanish_time) {
  PEF_CHECK(base_ != nullptr);
  PEF_CHECK(base_->ring().is_valid_edge(missing_edge_));
}

void EventualMissingEdgeSchedule::edges_into_words(
    Time t, std::uint64_t* words) const {
  base_->edges_into_words(t, words);
  if (t >= vanish_time_) {
    words[missing_edge_ >> 6] &= ~(1ULL << (missing_edge_ & 63));
  }
}

std::string EventualMissingEdgeSchedule::name() const {
  return "eventual-missing(e=" + std::to_string(missing_edge_) +
         ",t=" + std::to_string(vanish_time_) + ")+" + base_->name();
}

// ---------------------------------------------------------------------------
// BoundedAbsenceSchedule

BoundedAbsenceSchedule::BoundedAbsenceSchedule(Ring ring, Time max_absence,
                                               Time max_presence,
                                               std::uint64_t seed)
    : ring_(ring),
      max_absence_(max_absence),
      max_presence_(max_presence),
      seed_(seed),
      cursors_(ring.edge_count()) {
  PEF_CHECK(max_absence >= 1);
  PEF_CHECK(max_presence >= 1);
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) restart(e);
}

void BoundedAbsenceSchedule::restart(EdgeId e) const {
  EdgeCursor& cursor = cursors_[e];
  cursor.rng = Xoshiro256(derive_seed(seed_, e));
  cursor.start = 0;
  cursor.end = 1 + cursor.rng.next_below(max_presence_);
  cursor.present = true;
}

bool BoundedAbsenceSchedule::edge_present(EdgeId e, Time t) const {
  // O(1) amortised for the engines' monotone queries; a query before the
  // cursor's run replays the edge's stream from round 0 (the same draws).
  if (t < cursors_[e].start) restart(e);
  EdgeCursor& cursor = cursors_[e];
  while (cursor.end <= t) {
    cursor.start = cursor.end;
    cursor.present = !cursor.present;
    cursor.end += 1 + cursor.rng.next_below(cursor.present ? max_presence_
                                                           : max_absence_);
  }
  return cursor.present;
}

void BoundedAbsenceSchedule::edges_into_words(Time t,
                                              std::uint64_t* words) const {
  const std::uint32_t count = edge_word_count(ring_.edge_count());
  for (std::uint32_t i = 0; i < count; ++i) words[i] = 0;
  for (EdgeId e = 0; e < ring_.edge_count(); ++e) {
    if (edge_present(e, t)) words[e >> 6] |= 1ULL << (e & 63);
  }
}

std::string BoundedAbsenceSchedule::name() const {
  return "bounded-absence(A=" + std::to_string(max_absence_) + ")";
}

// ---------------------------------------------------------------------------
// SurgerySchedule

SurgerySchedule::SurgerySchedule(SchedulePtr base,
                                 std::vector<Removal> removals)
    : base_(std::move(base)), removals_(std::move(removals)) {
  PEF_CHECK(base_ != nullptr);
  for (const Removal& r : removals_) {
    PEF_CHECK(base_->ring().is_valid_edge(r.edge));
    PEF_CHECK(r.from <= r.to);
  }
}

void SurgerySchedule::edges_into_words(Time t, std::uint64_t* words) const {
  base_->edges_into_words(t, words);
  for (const Removal& r : removals_) {
    if (t >= r.from && t <= r.to) {
      words[r.edge >> 6] &= ~(1ULL << (r.edge & 63));
    }
  }
}

}  // namespace pef

// Unit tests for the oblivious schedule library.
#include "dynamic_graph/schedules.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dynamic_graph/chain.hpp"
#include "dynamic_graph/markov_schedule.hpp"
#include "isa_tier_check.hpp"

namespace pef {
namespace {

// First, so a misspelled PEF_BATCH_ISA registration fails before the
// kernels re-test the native tier.
TEST(IsaTierTest, ActiveTierIsTheOnePefBatchIsaNames) {
  expect_active_isa_is_the_named_tier();
}

TEST(StaticScheduleTest, AllEdgesAlways) {
  const StaticSchedule s(Ring(5));
  for (Time t = 0; t < 20; ++t) {
    EXPECT_TRUE(s.edges_at(t).full());
  }
}

TEST(RecordedScheduleTest, PrefixThenAllPresent) {
  const Ring ring(4);
  EdgeSet round0 = EdgeSet::none(4);
  round0.insert(1);
  EdgeSet round1 = EdgeSet::all(4);
  round1.erase(3);
  const RecordedSchedule s(ring, {round0, round1}, TailRule::kAllPresent);
  EXPECT_EQ(s.edges_at(0), round0);
  EXPECT_EQ(s.edges_at(1), round1);
  EXPECT_TRUE(s.edges_at(2).full());
  EXPECT_TRUE(s.edges_at(1000).full());
}

TEST(RecordedScheduleTest, RepeatLastTail) {
  const Ring ring(3);
  EdgeSet last = EdgeSet::none(3);
  last.insert(0);
  const RecordedSchedule s(ring, {EdgeSet::all(3), last},
                           TailRule::kRepeatLast);
  EXPECT_EQ(s.edges_at(5), last);
  EXPECT_EQ(s.edges_at(500), last);
}

TEST(RecordedScheduleTest, CyclePrefixTail) {
  const Ring ring(3);
  EdgeSet a = EdgeSet::none(3);
  a.insert(0);
  EdgeSet b = EdgeSet::none(3);
  b.insert(1);
  const RecordedSchedule s(ring, {a, b}, TailRule::kCyclePrefix);
  EXPECT_EQ(s.edges_at(2), a);
  EXPECT_EQ(s.edges_at(3), b);
  EXPECT_EQ(s.edges_at(100), a);
  EXPECT_EQ(s.edges_at(101), b);
}

TEST(BernoulliScheduleTest, Deterministic) {
  const BernoulliSchedule a(Ring(6), 0.5, 99);
  const BernoulliSchedule b(Ring(6), 0.5, 99);
  for (Time t = 0; t < 50; ++t) EXPECT_EQ(a.edges_at(t), b.edges_at(t));
}

TEST(BernoulliScheduleTest, ExtremeProbabilities) {
  const BernoulliSchedule never(Ring(5), 0.0, 1);
  const BernoulliSchedule always(Ring(5), 1.0, 1);
  for (Time t = 0; t < 20; ++t) {
    EXPECT_TRUE(never.edges_at(t).empty());
    EXPECT_TRUE(always.edges_at(t).full());
  }
}

TEST(BernoulliScheduleTest, FrequencyMatchesP) {
  const double p = 0.3;
  const BernoulliSchedule s(Ring(8), p, 7);
  std::uint64_t present = 0;
  const Time horizon = 5000;
  for (Time t = 0; t < horizon; ++t) present += s.edges_at(t).size();
  const double freq =
      static_cast<double>(present) / (8.0 * static_cast<double>(horizon));
  EXPECT_NEAR(freq, p, 0.02);
}

TEST(BernoulliScheduleTest, EveryEdgeRecurrent) {
  const BernoulliSchedule s(Ring(6), 0.2, 13);
  for (EdgeId e = 0; e < 6; ++e) {
    Time last_seen = 0;
    bool seen_recently = false;
    for (Time t = 0; t < 2000; ++t) {
      if (s.edges_at(t).contains(e)) {
        last_seen = t;
        seen_recently = true;
      }
    }
    EXPECT_TRUE(seen_recently);
    EXPECT_GT(last_seen, 1000u) << "edge " << e << " not recurrent";
  }
}

// The fill evaluates each draw without building a generator (see
// schedules.cpp).  It must agree bit for bit with the definition,
// Xoshiro256(derive_seed(seed, e, t)).next_bool(p), through both fill entry
// points, on the ISA tier this process runs: ctest registers this suite a
// second time with PEF_BATCH_ISA=portable.
TEST(BernoulliScheduleTest, FillMatchesTheGeneratorDefinition) {
  const double ps[] = {0.0, 5e-324, 1e-17, 0.1, 0.3,
                       0.5, 0.7,    1.0 - 0x1.0p-53, 1.0};
  const std::uint32_t ns[] = {3, 63, 64, 65, 128, 129, 1024};
  constexpr Time kTop = ~Time{0};
  const std::uint64_t seeds[] = {0, 99, kTop};
  const Time times[] = {0,
                        1,
                        2,
                        (Time{1} << 32) - 1,
                        Time{1} << 32,
                        (Time{1} << 32) + 1,
                        (Time{1} << 63) - 1,
                        Time{1} << 63,
                        (Time{1} << 63) + 1,
                        kTop - 1,
                        kTop};
  std::uint64_t draws = 0;
  for (const std::uint32_t n : ns) {
    const std::uint32_t word_count = edge_word_count(n);
    std::vector<std::uint64_t> row(word_count);
    EdgeSet set(n);
    for (const double p : ps) {
      for (const std::uint64_t seed : seeds) {
        const BernoulliSchedule s(Ring(n), p, seed);
        for (const Time t : times) {
          SCOPED_TRACE("n=" + std::to_string(n) + " p=" + std::to_string(p) +
                       " seed=" + std::to_string(seed) +
                       " t=" + std::to_string(t));
          // Stale bits everywhere: the fill must overwrite, not OR.
          std::fill(row.begin(), row.end(), ~0ULL);
          s.edges_into_words(t, row.data());
          set.fill();
          s.edges_into(t, set);
          std::uint32_t mismatches = 0;
          for (EdgeId e = 0; e < n; ++e) {
            Xoshiro256 rng(derive_seed(seed, e, t));
            const bool expected = rng.next_bool(p);
            const bool in_row = (row[e >> 6] >> (e & 63)) & 1;
            if (in_row != expected || set.contains(e) != expected) {
              ++mismatches;
            }
          }
          draws += n;
          EXPECT_EQ(mismatches, 0u);
          if (n % 64 != 0) {
            EXPECT_EQ(row[word_count - 1] >> (n % 64), 0u)
                << "tail bits past n are set";
            EXPECT_EQ(set.words()[word_count - 1] >> (n % 64), 0u)
                << "tail bits past n are set";
          }
        }
      }
    }
  }
  EXPECT_GT(draws, 400000u);
}

TEST(PeriodicScheduleTest, RespectsPattern) {
  const Ring ring(3);
  std::vector<PeriodicSchedule::EdgePattern> patterns{
      {4, 2, 0},  // present at t % 4 in {0, 1}
      {2, 1, 1},  // present at (t+1) % 2 == 0, i.e. odd t
      {1, 1, 0},  // always present
  };
  const PeriodicSchedule s(ring, patterns);
  EXPECT_TRUE(s.edges_at(0).contains(0));
  EXPECT_TRUE(s.edges_at(1).contains(0));
  EXPECT_FALSE(s.edges_at(2).contains(0));
  EXPECT_FALSE(s.edges_at(3).contains(0));
  EXPECT_TRUE(s.edges_at(4).contains(0));
  EXPECT_FALSE(s.edges_at(0).contains(1));
  EXPECT_TRUE(s.edges_at(1).contains(1));
  for (Time t = 0; t < 10; ++t) EXPECT_TRUE(s.edges_at(t).contains(2));
}

TEST(PeriodicScheduleTest, RotatingKeepsMostEdges) {
  const auto s = PeriodicSchedule::rotating(Ring(6), /*period=*/3,
                                            /*duty=*/2);
  for (Time t = 0; t < 30; ++t) {
    // duty/period = 2/3 of edges present on average; at least some present.
    EXPECT_GE(s.edges_at(t).size(), 2u);
  }
}

// The fill copies row t mod P of a table built in the constructor when the
// recurrence period P (the lcm of the edge periods) is at most 64, and
// evaluates each edge otherwise.  Both paths must agree bit for bit with
// the definition, (t + phase) % period < duty, through both fill entry
// points.  The definition's t + phase wraps only for t within 2^32 of 2^64
// (phase < 2^32), where it and the table part ways; no engine reaches such
// a round, so the times below stop at 2^64 - 2^32.
TEST(PeriodicScheduleTest, FillMatchesTheDefinition) {
  using Pattern = PeriodicSchedule::EdgePattern;
  struct Case {
    std::string label;
    std::vector<Pattern> patterns;
    PeriodicSchedule schedule;
    Time lcm;  // the expected recurrence period
  };
  constexpr Time kTop = ~Time{0};
  constexpr Time kBig = Time{1} << 32;
  constexpr Time kLast = kTop - kBig;  // the latest round checked
  std::uint64_t checks = 0;
  for (const std::uint32_t n : {3u, 63u, 64u, 65u, 129u, 1024u}) {
    const Ring ring(n);
    std::vector<Case> cases;
    // rotating(): one period P for every edge, phase e mod P.  P = 65 is
    // above the row cap.
    for (const std::uint32_t period : {1u, 2u, 5u, 64u, 65u}) {
      for (const std::uint32_t duty : {0u, (period + 1) / 2, period}) {
        std::vector<Pattern> patterns(n);
        for (EdgeId e = 0; e < n; ++e) patterns[e] = {period, duty, e % period};
        cases.push_back({"rotating(" + std::to_string(period) + "," +
                             std::to_string(duty) + ")",
                         std::move(patterns),
                         PeriodicSchedule::rotating(ring, period, duty),
                         period});
      }
    }
    // Mixed per-edge periods, phases past the period, duties 0, == period
    // and in between.  The lcms: 24 (4 when n = 3, tabulated), 1001 (above
    // the cap), and one that overflows 64 bits, which recurrence() reports
    // as 0.
    const std::pair<std::vector<std::uint32_t>, Time> period_sets[] = {
        {{4, 2, 1, 8, 3}, n == 3 ? Time{4} : Time{24}},
        {{7, 11, 13}, 1001},
        {{4294967291u, 4294967279u, 4294967231u}, 0}};
    for (const auto& [periods, lcm] : period_sets) {
      std::vector<Pattern> patterns(n);
      for (EdgeId e = 0; e < n; ++e) {
        const std::uint32_t period = periods[e % periods.size()];
        const std::uint32_t duty =
            e % 5 == 0 ? 0 : e % 5 == 1 ? period : (e * 3) % (period + 1);
        const auto phase =
            static_cast<std::uint32_t>(Time{e} * 2654435761u % kBig);
        patterns[e] = {period, duty, phase};
      }
      PeriodicSchedule schedule(ring, patterns);
      cases.push_back({"mixed(" + std::to_string(periods.front()) + ",...)",
                       std::move(patterns), std::move(schedule), lcm});
    }

    const std::uint32_t word_count = edge_word_count(n);
    std::vector<std::uint64_t> row(word_count);
    EdgeSet set(n);
    for (const Case& c : cases) {
      EXPECT_EQ(c.schedule.recurrence().period, c.lcm) << c.label;
      EXPECT_EQ(c.schedule.recurrence().start, Time{0}) << c.label;

      std::vector<Time> times = {0,
                                 1,
                                 2,
                                 kBig - 1,
                                 kBig,
                                 kBig + 1,
                                 (Time{1} << 63) - 1,
                                 Time{1} << 63,
                                 (Time{1} << 63) + 1,
                                 kLast};
      // Around multiples of the first edge's period and of the lcm.
      for (const Time p : {Time{c.patterns.front().period}, c.lcm}) {
        if (p == 0) continue;
        for (const Time m : {Time{1}, Time{2}, Time{1000},
                             (Time{1} << 63) / p, kLast / p}) {
          times.insert(times.end(), {m * p - 1, m * p});
          if (m * p < kLast) times.push_back(m * p + 1);
        }
      }
      for (const Time t : times) {
        SCOPED_TRACE("n=" + std::to_string(n) + " " + c.label +
                     " t=" + std::to_string(t));
        // Stale bits everywhere: the fill must overwrite, not OR.
        std::fill(row.begin(), row.end(), ~0ULL);
        c.schedule.edges_into_words(t, row.data());
        set.fill();
        c.schedule.edges_into(t, set);
        std::uint32_t mismatches = 0;
        for (EdgeId e = 0; e < n; ++e) {
          const Pattern& p = c.patterns[e];
          const bool expected = (t + p.phase) % p.period < p.duty;
          const bool in_row = (row[e >> 6] >> (e & 63)) & 1;
          if (in_row != expected || set.contains(e) != expected) ++mismatches;
        }
        checks += n;
        EXPECT_EQ(mismatches, 0u);
        if (n % 64 != 0) {
          EXPECT_EQ(row[word_count - 1] >> (n % 64), 0u)
              << "tail bits past n are set";
          EXPECT_EQ(set.words()[word_count - 1] >> (n % 64), 0u)
              << "tail bits past n are set";
        }
      }
    }
  }
  EXPECT_GT(checks, 900000u);
}

TEST(TIntervalScheduleTest, AtMostOneEdgeMissing) {
  const TIntervalConnectedSchedule s(Ring(7), 5, 3);
  for (Time t = 0; t < 200; ++t) {
    EXPECT_GE(s.edges_at(t).size(), 6u);
  }
}

TEST(TIntervalScheduleTest, MissingEdgeStableWithinEpoch) {
  const TIntervalConnectedSchedule s(Ring(7), 5, 3);
  for (Time epoch = 0; epoch < 20; ++epoch) {
    const EdgeSet first = s.edges_at(epoch * 5);
    for (Time o = 1; o < 5; ++o) {
      EXPECT_EQ(s.edges_at(epoch * 5 + o), first);
    }
  }
}

TEST(EventualMissingEdgeTest, VanishesForever) {
  auto base = std::make_shared<StaticSchedule>(Ring(5));
  const EventualMissingEdgeSchedule s(base, 2, 10);
  for (Time t = 0; t < 10; ++t) EXPECT_TRUE(s.edges_at(t).contains(2));
  for (Time t = 10; t < 100; ++t) {
    EXPECT_FALSE(s.edges_at(t).contains(2));
    EXPECT_EQ(s.edges_at(t).size(), 4u);
  }
}

TEST(BoundedAbsenceTest, AbsenceRunsAreBounded) {
  const Time max_absence = 4;
  const BoundedAbsenceSchedule s(Ring(5), max_absence, 6, 11);
  for (EdgeId e = 0; e < 5; ++e) {
    Time run = 0;
    for (Time t = 0; t < 3000; ++t) {
      if (s.edges_at(t).contains(e)) {
        run = 0;
      } else {
        ++run;
        EXPECT_LE(run, max_absence) << "edge " << e << " at t=" << t;
      }
    }
  }
}

TEST(BoundedAbsenceTest, RandomAccessMatchesSequential) {
  const BoundedAbsenceSchedule seq(Ring(4), 3, 5, 21);
  const BoundedAbsenceSchedule rnd(Ring(4), 3, 5, 21);
  // Query `rnd` out of order and compare against in-order `seq`.
  std::vector<EdgeSet> expected;
  for (Time t = 0; t < 100; ++t) expected.push_back(seq.edges_at(t));
  for (Time t = 100; t-- > 0;) {
    EXPECT_EQ(rnd.edges_at(t), expected[static_cast<std::size_t>(t)]);
  }

  // A forward run of 10^5 rounds, then jumps back and forth: a query
  // before the edge's current run replays its stream from round 0.
  constexpr Time kLong = 100000;
  const BoundedAbsenceSchedule forward(Ring(4), 3, 5, 21);
  const BoundedAbsenceSchedule jumper(Ring(4), 3, 5, 21);
  std::vector<std::uint64_t> rows(kLong);
  std::uint64_t row = 0;
  for (Time t = 0; t < kLong; ++t) {
    forward.edges_into_words(t, &rows[t]);
    jumper.edges_into_words(t, &row);
    ASSERT_EQ(row, rows[t]) << "t=" << t;
  }
  for (const Time t : {Time{17}, kLong - 1, Time{54321}, Time{54320},
                       Time{0}, kLong - 2, Time{99}}) {
    jumper.edges_into_words(t, &row);
    EXPECT_EQ(row, rows[t]) << "t=" << t;
  }
}

TEST(SurgeryScheduleTest, RemovesDuringIntervals) {
  auto base = std::make_shared<StaticSchedule>(Ring(4));
  const SurgerySchedule s(base, {{0, 2, 5}, {1, 4, 4}, {0, 10, 12}});
  EXPECT_TRUE(s.edges_at(1).contains(0));
  for (Time t = 2; t <= 5; ++t) EXPECT_FALSE(s.edges_at(t).contains(0));
  EXPECT_TRUE(s.edges_at(6).contains(0));
  EXPECT_FALSE(s.edges_at(4).contains(1));
  EXPECT_TRUE(s.edges_at(5).contains(1));
  EXPECT_FALSE(s.edges_at(11).contains(0));
  EXPECT_TRUE(s.edges_at(13).contains(0));
}

TEST(SurgeryScheduleTest, InfiniteRemoval) {
  auto base = std::make_shared<StaticSchedule>(Ring(4));
  const SurgerySchedule s(base, {{3, 7, kTimeInfinity}});
  EXPECT_TRUE(s.edges_at(6).contains(3));
  EXPECT_FALSE(s.edges_at(7).contains(3));
  EXPECT_FALSE(s.edges_at(100000).contains(3));
}

// ---------------------------------------------------------------------------
// next_change: engines refill their edge scratch only at the round a
// schedule names, so an answer must never be late — E_s == E_t for every s
// in [t, next_change(t)) — and must lie after t.

/// The contract at every t of [from, to).  A span longer than kSpan rounds
/// is checked at its first kSpan rounds and its last one (or, for
/// kTimeInfinity, one round 2^40 later).
void expect_next_change_holds(const EdgeSchedule& s, Time from, Time to) {
  constexpr Time kSpan = 64;
  for (Time t = from; t < to; ++t) {
    const Time next = s.next_change(t);
    ASSERT_GT(next, t) << s.name() << " t=" << t;
    const EdgeSet at_t = s.edges_at(t);
    for (Time u = t + 1; u < std::min(next, t + kSpan); ++u) {
      ASSERT_EQ(s.edges_at(u), at_t) << s.name() << " t=" << t << " s=" << u;
    }
    const Time last = next == kTimeInfinity ? t + (Time{1} << 40) : next - 1;
    ASSERT_EQ(s.edges_at(last), at_t)
        << s.name() << " t=" << t << " s=" << last;
  }
}

TEST(NextChangeTest, EveryFamilyNeverAnswersLate) {
  const Ring ring(9);
  const auto stat = std::make_shared<StaticSchedule>(ring);
  const auto tint = std::make_shared<TIntervalConnectedSchedule>(ring, 5, 3);
  EdgeSet a = EdgeSet::all(9);
  a.erase(2);
  EdgeSet b = EdgeSet::none(9);
  b.insert(4);
  const std::vector<SchedulePtr> schedules = {
      stat,
      std::make_shared<RecordedSchedule>(ring, std::vector<EdgeSet>{a, b, a},
                                         TailRule::kAllPresent),
      std::make_shared<RecordedSchedule>(ring, std::vector<EdgeSet>{a, b},
                                         TailRule::kRepeatLast),
      std::make_shared<RecordedSchedule>(ring, std::vector<EdgeSet>{a, b, b},
                                         TailRule::kCyclePrefix),
      std::make_shared<BernoulliSchedule>(ring, 0.5, 7),
      std::make_shared<PeriodicSchedule>(
          PeriodicSchedule::rotating(ring, 4, 3)),
      tint,
      std::make_shared<EventualMissingEdgeSchedule>(stat, 3, 17),
      std::make_shared<EventualMissingEdgeSchedule>(tint, 3, 17),
      std::make_shared<BoundedAbsenceSchedule>(ring, 3, 4, 11),
      std::make_shared<SurgerySchedule>(
          stat, std::vector<Removal>{{1, 4, 9}, {6, 20, kTimeInfinity}}),
      std::make_shared<MarkovSchedule>(ring, 0.2, 0.5, 13),
      ChainSchedule::cut_last(stat),
      ChainSchedule::cut_last(tint),
  };
  for (const SchedulePtr& schedule : schedules) {
    SCOPED_TRACE(schedule->name());
    expect_next_change_holds(*schedule, 0, 120);
  }
}

TEST(NextChangeTest, AnswersOfTheFamiliesThatKnowTheirSpans) {
  const Ring ring(9);
  const auto stat = std::make_shared<StaticSchedule>(ring);
  const auto tint = std::make_shared<TIntervalConnectedSchedule>(ring, 5, 3);
  for (const Time t : {Time{0}, Time{7}, Time{1} << 40}) {
    EXPECT_EQ(stat->next_change(t), kTimeInfinity);
    EXPECT_EQ(ChainSchedule::cut_last(stat)->next_change(t), kTimeInfinity);
  }
  EXPECT_EQ(tint->next_change(0), 5u);
  EXPECT_EQ(tint->next_change(4), 5u);
  EXPECT_EQ(tint->next_change(5), 10u);
  EXPECT_EQ(ChainSchedule::cut_last(tint)->next_change(7), 10u);
  // Eventual-missing: the base's answer, capped at the vanish before it.
  const EventualMissingEdgeSchedule on_static(stat, 3, 17);
  EXPECT_EQ(on_static.next_change(0), 17u);
  EXPECT_EQ(on_static.next_change(16), 17u);
  EXPECT_EQ(on_static.next_change(17), kTimeInfinity);
  const EventualMissingEdgeSchedule on_tint(tint, 3, 17);
  EXPECT_EQ(on_tint.next_change(12), 15u);
  EXPECT_EQ(on_tint.next_change(15), 17u);
  EXPECT_EQ(on_tint.next_change(17), 20u);
  // A time-invariant schedule is still recognized as recurrent.
  EXPECT_EQ(stat->recurrence().period, 1u);
  EXPECT_EQ(tint->recurrence().period, 0u);
}

TEST(NextChangeTest, TIntervalBoundaryPastTimeSaturates) {
  const Ring ring(9);
  // 2^63 + 5: the second boundary, 2^64 + 10, does not fit a Time.
  const Time huge = (Time{1} << 63) + 5;
  const TIntervalConnectedSchedule s(ring, huge, 21);
  EXPECT_EQ(s.next_change(0), huge);
  EXPECT_EQ(s.next_change(huge - 1), huge);
  EXPECT_EQ(s.next_change(huge), kTimeInfinity);
  EXPECT_EQ(s.next_change(kTimeInfinity - 1), kTimeInfinity);
  expect_next_change_holds(s, huge - 3, huge + 3);
  EXPECT_EQ(s.edges_at(kTimeInfinity - 1), s.edges_at(huge));
  // 2^63 - 1: the second boundary, 2^64 - 2, still fits; the third does
  // not.
  const Time edge = (Time{1} << 63) - 1;
  const TIntervalConnectedSchedule t(ring, edge, 21);
  EXPECT_EQ(t.next_change(edge), 2 * edge);
  EXPECT_EQ(t.next_change(2 * edge - 1), 2 * edge);
  EXPECT_EQ(t.next_change(2 * edge), kTimeInfinity);
  expect_next_change_holds(t, 2 * edge - 3, 2 * edge);
}

// ---------------------------------------------------------------------------
// absent_edges: a listing family names exactly the clear bits of its row,
// and BatchEngine patches its lanes' rows from that list.

TEST(AbsentEdgesTest, TIntervalListsExactlyTheClearBitsOfItsRow) {
  for (const std::uint32_t n : {2u, 64u, 65u, 130u}) {
    const Ring ring(n);
    for (const std::uint64_t seed : {1u, 7u, 99u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " seed " +
                   std::to_string(seed));
      const TIntervalConnectedSchedule s(ring, 4, seed);
      std::vector<std::uint64_t> row(edge_word_count(n));
      std::uint32_t listed_any = 0;
      // Every round of 60 intervals.
      for (Time t = 0; t < 240; ++t) {
        s.edges_into_words(t, row.data());
        std::vector<EdgeId> clear;
        for (EdgeId e = 0; e < n; ++e) {
          if ((row[e >> 6] >> (e & 63) & 1) == 0) clear.push_back(e);
        }
        for (const std::size_t slots : {std::size_t{1}, std::size_t{2}}) {
          EdgeId out[2] = {n, n};
          const std::optional<std::uint32_t> count =
              s.absent_edges(t, std::span<EdgeId>(out, slots));
          ASSERT_TRUE(count.has_value()) << "t=" << t;
          ASSERT_EQ(*count, clear.size()) << "t=" << t;
          for (std::uint32_t j = 0; j < *count; ++j) {
            EXPECT_EQ(out[j], clear[j]) << "t=" << t;
          }
        }
        listed_any += clear.empty() ? 0 : 1;
      }
      EXPECT_GT(listed_any, 0u);
      // Nothing fits an empty list, so the family does not list into one.
      EXPECT_FALSE(s.absent_edges(0, {}).has_value());
    }
  }
}

TEST(AbsentEdgesTest, TIntervalPickIsTheLiteralDraw) {
  for (const std::uint32_t n : {2u, 9u, 64u, 65u, 130u, 1024u}) {
    const Ring ring(n);
    for (const Time interval : {Time{1}, Time{4}, Time{7}}) {
      for (const std::uint64_t seed :
           {std::uint64_t{0}, std::uint64_t{21}, ~std::uint64_t{0}}) {
        const TIntervalConnectedSchedule s(ring, interval, seed);
        std::vector<Time> times;
        for (Time t = 0; t < 300; ++t) times.push_back(t);
        for (const Time t : {Time{1} << 40, kTimeInfinity - 1}) {
          times.push_back(t);
        }
        for (const Time t : times) {
          const std::uint64_t literal =
              Xoshiro256(derive_seed(seed, t / interval)).next_below(n + 1);
          EdgeId out[1];
          const std::optional<std::uint32_t> count = s.absent_edges(t, out);
          ASSERT_TRUE(count.has_value());
          if (literal == n) {
            EXPECT_EQ(*count, 0u) << "n=" << n << " t=" << t;
          } else {
            ASSERT_EQ(*count, 1u) << "n=" << n << " t=" << t;
            EXPECT_EQ(out[0], literal) << "n=" << n << " t=" << t;
          }
        }
      }
    }
  }
}

TEST(AbsentEdgesTest, OtherFamiliesDoNotList) {
  const Ring ring(9);
  const auto stat = std::make_shared<StaticSchedule>(ring);
  const auto tint = std::make_shared<TIntervalConnectedSchedule>(ring, 5, 3);
  const std::vector<SchedulePtr> schedules = {
      stat,
      std::make_shared<BernoulliSchedule>(ring, 0.5, 7),
      std::make_shared<PeriodicSchedule>(
          PeriodicSchedule::rotating(ring, 4, 3)),
      std::make_shared<EventualMissingEdgeSchedule>(tint, 3, 17),
      std::make_shared<BoundedAbsenceSchedule>(ring, 3, 4, 11),
      std::make_shared<MarkovSchedule>(ring, 0.2, 0.5, 13),
      ChainSchedule::cut_last(tint),
  };
  for (const SchedulePtr& schedule : schedules) {
    EdgeId out[2];
    EXPECT_FALSE(schedule->absent_edges(0, out).has_value())
        << schedule->name();
  }
}

// ---------------------------------------------------------------------------
// Every family's E_t, pinned: edges_into_words is each family's only fill
// (edges_into and edges_at wrap it), so it is checked against FNV-1a
// hashes of its rows t in [0, 200), recorded while every family still had
// a separate edges_at body.  Covers tail-masked rings (n not a multiple of
// 64) and multi-word rings (n > 64).  Regenerate the pins only after an
// intentional change to a family's E_t.

std::vector<EdgeSet> recorded_prefix(std::uint32_t n) {
  std::vector<EdgeSet> rounds;
  for (std::uint32_t r = 0; r < 7; ++r) {
    EdgeSet s(n);
    for (EdgeId e = 0; e < n; ++e) {
      if ((e * 7 + r * 3) % 5 != 0) s.insert(e);
    }
    rounds.push_back(s);
  }
  return rounds;
}

TEST(ScheduleWordsTest, EveryFamilyFillsItsPinnedRows) {
  struct Pins {
    std::uint32_t n;
    std::uint64_t rows[12];  // in the order of `schedules` below
  };
  const Pins all_pins[] = {
      {9,
       {0x3e30b9367a8e6e7dULL, 0x1620774e5a63e45fULL, 0xd3cf106815c1970dULL,
        0x723165e49744dde9ULL, 0x528c11488275f57dULL, 0xe8761457c5444190ULL,
        0x4f9af1698e58959eULL, 0x9562bc30f11818bdULL, 0x04f8df582cb01d63ULL,
        0x7d600c4537ba1789ULL, 0xdae63a1035ce845aULL, 0x161a0b53ac347538ULL}},
      {70,
       {0x3fcaa34f06905cd5ULL, 0x4ccd166f30151f42ULL, 0xaacd72f3b700e355ULL,
        0xca86f6990b9dc135ULL, 0x8d0298de2ac26bf7ULL, 0x1357047adb12c074ULL,
        0xa7b9e8c3c89a4de9ULL, 0xf7ff17f9c5640e25ULL, 0xd20161ab575d22e2ULL,
        0x2a9350cde6814ca8ULL, 0xd29e3e5bfd33d218ULL, 0x9656d7184f7375cfULL}},
      {130,
       {0xe54d6dae9803114dULL, 0xd2ff0882af12d6c1ULL, 0x17889580bc56972dULL,
        0xb52b1261bfe023cdULL, 0x4de4fe2c493c4a7eULL, 0xfb6d4ee2cd19a1bdULL,
        0x62f16880afa05bf5ULL, 0xf5e711eb0d06b74dULL, 0x671f073946354d31ULL,
        0xfa76a67ce0c108f3ULL, 0x1602664a1ebf21a3ULL, 0x4ad7cc7dfa0482eeULL}},
  };
  for (const Pins& pins : all_pins) {
    const std::uint32_t n = pins.n;
    const Ring ring(n);
    const std::vector<SchedulePtr> schedules = {
        std::make_shared<StaticSchedule>(ring),
        std::make_shared<BernoulliSchedule>(ring, 0.4, 7),
        std::make_shared<PeriodicSchedule>(
            PeriodicSchedule::rotating(ring, 5, 3)),
        std::make_shared<TIntervalConnectedSchedule>(ring, 4, 11),
        std::make_shared<BoundedAbsenceSchedule>(ring, 3, 5, 13),
        std::make_shared<EventualMissingEdgeSchedule>(
            std::make_shared<BernoulliSchedule>(ring, 0.8, 3),
            static_cast<EdgeId>(n / 2), 6),
        std::make_shared<MarkovSchedule>(ring, 0.2, 0.4, 17),
        std::make_shared<SurgerySchedule>(
            std::make_shared<StaticSchedule>(ring),
            std::vector<Removal>{{1, 2, 9}}),
        std::make_shared<RecordedSchedule>(ring, recorded_prefix(n),
                                           TailRule::kAllPresent),
        std::make_shared<RecordedSchedule>(ring, recorded_prefix(n),
                                           TailRule::kRepeatLast),
        std::make_shared<RecordedSchedule>(ring, recorded_prefix(n),
                                           TailRule::kCyclePrefix),
        ChainSchedule::cut_last(
            std::make_shared<BernoulliSchedule>(ring, 0.6, 19)),
    };
    for (std::size_t i = 0; i < schedules.size(); ++i) {
      const EdgeSchedule& schedule = *schedules[i];
      SCOPED_TRACE("n=" + std::to_string(n) + " #" + std::to_string(i) +
                   " " + schedule.name());
      std::vector<std::uint64_t> row(edge_word_count(n));
      EdgeSet set(n);
      std::uint64_t hash = 0xcbf29ce484222325ULL;
      for (Time t = 0; t < 200; ++t) {
        // Stale bits everywhere: the fill must overwrite, not OR.
        std::fill(row.begin(), row.end(), ~0ULL);
        schedule.edges_into_words(t, row.data());
        // Tail bits must stay clear so full()/word compares stay valid.
        if (n % 64 != 0) {
          EXPECT_EQ(row.back() >> (n % 64), 0u) << "t=" << t;
        }
        set.fill();
        schedule.edges_into(t, set);
        EXPECT_TRUE(std::equal(row.begin(), row.end(), set.words()))
            << "t=" << t;
        for (const std::uint64_t word : row) {
          hash ^= word;
          hash *= 0x100000001b3ULL;
        }
      }
      EXPECT_EQ(hash, pins.rows[i]);
    }
  }
}

}  // namespace
}  // namespace pef

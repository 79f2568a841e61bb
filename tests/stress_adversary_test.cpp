// Tests for the legality-capped greedy blocker (possibility-side stress).
#include "adversary/greedy_blocker.hpp"

#include <gtest/gtest.h>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/schedules.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

TEST(GreedyBlockerTest, RemovesPointedEdges) {
  const Ring ring(6);
  GreedyBlockerAdversary blocker(ring, 4);
  std::vector<RobotSnapshot> snaps(2);
  snaps[0].node = 0;
  snaps[0].dir = LocalDirection::kLeft;  // ccw with default chirality
  snaps[1].node = 3;
  snaps[1].dir = LocalDirection::kRight;  // cw
  const Configuration gamma(ring, snaps);
  const EdgeSet edges = blocker.choose_edges(0, gamma, ActivationMask(2, 1));
  // Robot 0 points at edge 5 (ccw of node 0); robot 1 at edge 3.
  EXPECT_FALSE(edges.contains(5));
  EXPECT_FALSE(edges.contains(3));
  EXPECT_EQ(edges.size(), 4u);
}

TEST(GreedyBlockerTest, AbsenceBudgetForcesReopening) {
  // A camping robot keeps pointing at the same edge; the blocker removes it
  // for exactly `max_absence` rounds, then must re-present it for one.  Two
  // robots camping on the same edge spend its budget no faster.
  const Ring ring(5);
  const Time budget = 3;
  for (const std::size_t campers : {1u, 2u}) {
    GreedyBlockerAdversary blocker(ring, budget);
    std::vector<RobotSnapshot> snaps(campers);
    snaps[0].node = 2;
    snaps[0].dir = LocalDirection::kLeft;  // points at edge 1 forever
    if (campers == 2) {
      snaps[1].node = 1;
      snaps[1].dir = LocalDirection::kRight;  // so does this one
    }
    const Configuration gamma(ring, snaps);
    const ActivationMask all(campers, 1);
    for (Time t = 0; t < 50; ++t) {
      const EdgeSet edges = blocker.choose_edges(t, gamma, all);
      EXPECT_EQ(edges.contains(1), t % (budget + 1) == budget)
          << "campers=" << campers << " t=" << t;
      EXPECT_EQ(edges.size(), edges.contains(1) ? 5u : 4u);
    }
  }
}

TEST(GreedyBlockerTest, RealizedPrefixIsLegal) {
  const Ring ring(7);
  Simulator sim(ring, make_algorithm("pef3+"),
                std::make_unique<GreedyBlockerAdversary>(ring, 5),
                spread_placements(ring, 3));
  sim.run(2000);
  const auto audit =
      audit_connectivity(ring, sim.trace().edge_history(), 500);
  EXPECT_TRUE(audit.connected_over_time);
  EXPECT_TRUE(audit.suspected_missing.empty());
  EXPECT_LE(audit.max_closed_absence, 5u);
}

TEST(GreedyBlockerTest, Pef3PlusStillExploresUnderStress) {
  // Theorem 3.1 is adversary-universal: even the pointed-edge blocker only
  // slows PEF_3+ down.
  for (std::uint32_t n : {5u, 8u, 11u}) {
    const Ring ring(n);
    Simulator sim(ring, make_algorithm("pef3+"),
                  std::make_unique<GreedyBlockerAdversary>(ring, 6),
                  spread_placements(ring, 3));
    sim.run(1000 * n);
    EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(n)) << "n=" << n;
  }
}

TEST(GreedyBlockerTest, SlowsExplorationComparedToStatic) {
  const Ring ring(8);
  auto run_gap = [&](AdversaryPtr adversary) {
    Simulator sim(ring, make_algorithm("pef3+"), std::move(adversary),
                  spread_placements(ring, 3));
    sim.run(6000);
    return analyze_coverage(sim.trace()).max_revisit_gap;
  };
  const Time stressed =
      run_gap(std::make_unique<GreedyBlockerAdversary>(ring, 6));
  const Time easy = run_gap(
      make_oblivious(std::make_shared<StaticSchedule>(ring)));
  EXPECT_GT(stressed, easy);
}

TEST(GreedyBlockerTest, PefTwoOnTriangleSurvives) {
  const Ring ring(3);
  Simulator sim(ring, make_algorithm("pef2"),
                std::make_unique<GreedyBlockerAdversary>(ring, 4),
                {{0, Chirality(true)}, {1, Chirality(true)}});
  sim.run(5000);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(3));
}

TEST(GreedyBlockerTest, PefOneOnTwoRingSurvives) {
  const Ring ring(2);
  Simulator sim(ring, make_algorithm("pef1"),
                std::make_unique<GreedyBlockerAdversary>(ring, 4),
                {{0, Chirality(true)}});
  sim.run(3000);
  EXPECT_TRUE(analyze_coverage(sim.trace()).perpetual(2));
}

}  // namespace
}  // namespace pef

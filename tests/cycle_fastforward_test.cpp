// Cycle-detection fast-forward (engine/cycle.hpp): every test here is
// differential — the fast-forwarded run must reproduce the plain run's
// statistics EXACTLY, not approximately — plus edge cases the sweep grids
// rarely hit: period-1 fixpoints, cycles entered at round 0, tower-forming
// configurations, chain topology, horizons landing mid-period, and forced
// hash collisions (a truncated test hash must fall through to the exact
// comparison, never corrupt a result).
#include "engine/cycle.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "dynamic_graph/chain.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/batch_engine.hpp"
#include "engine/engine.hpp"
#include "engine/placements.hpp"

namespace pef {
namespace {

constexpr Time kHorizon = 100003;  // lands mid-period for any period > 1

enum class Topo { kRing, kChain };

SchedulePtr make_schedule(const Ring& ring, Topo topo, bool rotating) {
  SchedulePtr base =
      rotating ? std::make_shared<PeriodicSchedule>(
                     PeriodicSchedule::rotating(ring, 3, 2))
               : SchedulePtr(std::make_shared<StaticSchedule>(ring));
  return topo == Topo::kChain ? ChainSchedule::cut_last(base) : base;
}

Engine make_engine(const Ring& ring, const std::string& algorithm, Topo topo,
                   bool rotating, std::uint32_t robots,
                   const EngineOptions& options) {
  return Engine(ring, make_algorithm(algorithm, 7),
                std::make_unique<ObliviousAdversary>(
                    make_schedule(ring, topo, rotating)),
                spread_placements(ring, robots), options);
}

void expect_same(const Engine& ff, const Engine& plain) {
  const EngineStats& a = ff.stats();
  const EngineStats& b = plain.stats();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_moves, b.total_moves);
  EXPECT_EQ(a.tower_rounds, b.tower_rounds);
  EXPECT_EQ(a.tower_formations, b.tower_formations);
  EXPECT_EQ(a.visited_node_count, b.visited_node_count);
  EXPECT_EQ(a.cover_time, b.cover_time);
  const CoverageReport ca = ff.coverage_report();
  const CoverageReport cb = plain.coverage_report();
  EXPECT_EQ(ca.visit_counts, cb.visit_counts);
  EXPECT_EQ(ca.max_revisit_gap, cb.max_revisit_gap);
  EXPECT_EQ(ca.max_closed_gap, cb.max_closed_gap);
  EXPECT_EQ(ff.robot_node(0), plain.robot_node(0));
}

/// Runs the scenario twice (fast-forward on/off) at several consecutive
/// horizons — so whatever the detected period is, at least one horizon
/// lands strictly mid-period — and pins every statistic.
void run_differential(const std::string& algorithm, Topo topo, bool rotating,
                      std::uint32_t nodes, std::uint32_t robots,
                      bool expect_engaged,
                      std::uint64_t hash_mask = ~std::uint64_t{0}) {
  SCOPED_TRACE(algorithm + (topo == Topo::kChain ? " chain" : " ring") +
               (rotating ? " rotating" : " static") +
               " n=" + std::to_string(nodes) + " k=" + std::to_string(robots));
  const Ring ring(nodes);
  for (Time horizon = kHorizon; horizon < kHorizon + 3; ++horizon) {
    SCOPED_TRACE("horizon " + std::to_string(horizon));
    EngineOptions ff_options;
    ff_options.fast_forward.enabled = true;
    ff_options.fast_forward.hash_mask = hash_mask;
    Engine ff = make_engine(ring, algorithm, topo, rotating, robots,
                            ff_options);
    Engine plain = make_engine(ring, algorithm, topo, rotating, robots,
                               EngineOptions{});
    ff.run(horizon);
    plain.run(horizon);
    expect_same(ff, plain);
    EXPECT_EQ(ff.fast_forwarded(), expect_engaged);
    if (expect_engaged) {
      EXPECT_LT(ff.rounds_simulated(), horizon);
      EXPECT_GT(ff.detected_period(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Detector unit tests.

TEST(BrentDetectorTest, ConstantStreamIsAPeriodOneFixpoint) {
  BrentDetector detector;
  const std::vector<std::uint64_t> state = {1, 2, 3};
  StateHash hash;
  for (const std::uint64_t w : state) hash.add(w);
  EXPECT_EQ(detector.observe(state, hash.value), 0u);  // sets the anchor
  EXPECT_EQ(detector.observe(state, hash.value), 1u);
  EXPECT_EQ(detector.collisions(), 0u);
}

TEST(BrentDetectorTest, FindsMinimalPeriodAfterAPreperiod) {
  // Stream: 5 transient states, then a cycle of length 3.  Brent's
  // re-anchoring must land an anchor inside the cycle and report 3.
  BrentDetector detector;
  const auto pack = [](std::uint64_t tag) {
    return std::vector<std::uint64_t>{tag};
  };
  const auto hash_of = [](std::uint64_t tag) {
    StateHash hash;
    hash.add(tag);
    return hash.value;
  };
  Time found = 0;
  std::uint64_t t = 0;
  for (; t < 200 && found == 0; ++t) {
    const std::uint64_t tag = t < 5 ? t : 5 + (t - 5) % 3;
    found = detector.observe(pack(tag), hash_of(tag));
  }
  EXPECT_EQ(found, 3u);
}

TEST(BrentDetectorTest, MaskedHashCollisionsFallThroughToExactCompare) {
  // hash_mask 0 makes EVERY pair of samples a hash hit; only the exact
  // state comparison may declare the cycle.
  BrentDetector detector(/*hash_mask=*/0);
  Time found = 0;
  for (std::uint64_t t = 0; t < 100 && found == 0; ++t) {
    const std::uint64_t tag = t % 7;
    StateHash hash;
    hash.add(tag);
    found = detector.observe({tag}, hash.value);
  }
  EXPECT_EQ(found, 7u);
  EXPECT_GT(detector.collisions(), 0u);
}

// ---------------------------------------------------------------------------
// Solo engine differentials.

TEST(CycleFastForwardTest, PeriodOneFixpointOnStaticChain) {
  // keep-direction robots sharing a chirality pile up against the chain's
  // cut edge and freeze: the execution reaches a true fixpoint.
  const Ring ring(7);
  EngineOptions options;
  options.fast_forward.enabled = true;
  Engine ff = make_engine(ring, "keep-direction", Topo::kChain,
                          /*rotating=*/false, 3, options);
  ff.run(kHorizon);
  EXPECT_TRUE(ff.fast_forwarded());
  EXPECT_EQ(ff.detected_period(), 1u);
  Engine plain = make_engine(ring, "keep-direction", Topo::kChain,
                             /*rotating=*/false, 3, EngineOptions{});
  plain.run(kHorizon);
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, CycleEnteredAtRoundZero) {
  // A lone keep-direction robot on a static ring rotates from the very
  // first round: no preperiod, minimal period n.
  const Ring ring(6);
  EngineOptions options;
  options.fast_forward.enabled = true;
  Engine ff = make_engine(ring, "keep-direction", Topo::kRing,
                          /*rotating=*/false, 1, options);
  ff.run(kHorizon);
  EXPECT_TRUE(ff.fast_forwarded());
  EXPECT_EQ(ff.detected_period(), 6u);
  Engine plain = make_engine(ring, "keep-direction", Topo::kRing,
                             /*rotating=*/false, 1, EngineOptions{});
  plain.run(kHorizon);
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, RegistryAlgorithmsOnRotatingRing) {
  for (const char* algorithm : {"pef3+", "pef2", "keep-direction", "bounce",
                                "oscillating"}) {
    const std::uint32_t robots = std::string(algorithm) == "pef2" ? 2 : 3;
    run_differential(algorithm, Topo::kRing, /*rotating=*/true, 8, robots,
                     /*expect_engaged=*/true);
  }
}

TEST(CycleFastForwardTest, TowerFormingConfiguration) {
  // Towers form when the rotating missing edge squeezes robots together;
  // the extrapolated tower_rounds / tower_formations must match exactly.
  const Ring ring(5);
  EngineOptions options;
  options.fast_forward.enabled = true;
  Engine ff = make_engine(ring, "pef3+", Topo::kRing, /*rotating=*/true, 3,
                          options);
  Engine plain = make_engine(ring, "pef3+", Topo::kRing, /*rotating=*/true, 3,
                             EngineOptions{});
  ff.run(kHorizon);
  plain.run(kHorizon);
  ASSERT_GT(plain.stats().tower_rounds, 0u)
      << "scenario no longer forms towers; pick one that does";
  EXPECT_TRUE(ff.fast_forwarded());
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, ChainTopology) {
  run_differential("pef3+", Topo::kChain, /*rotating=*/true, 8, 3,
                   /*expect_engaged=*/true);
}

TEST(CycleFastForwardTest, ForcedHashCollisionsStayExact) {
  // A 4-bit fingerprint collides constantly; the exact-verify step must
  // reject every false hit and still find the true cycle.
  EngineOptions probe;
  probe.fast_forward.enabled = true;
  probe.fast_forward.hash_mask = 0xF;
  const Ring ring(8);
  Engine ff = make_engine(ring, "pef3+", Topo::kRing, /*rotating=*/true, 3,
                          probe);
  ff.run(kHorizon);
  EXPECT_TRUE(ff.fast_forwarded());
  EXPECT_GT(ff.ff_collisions(), 0u);
  Engine plain = make_engine(ring, "pef3+", Topo::kRing, /*rotating=*/true, 3,
                             EngineOptions{});
  plain.run(kHorizon);
  expect_same(ff, plain);
}

TEST(CycleFastForwardTest, RandomWalkNeverDetectsButStaysCorrect) {
  // Xoshiro streams never cycle: the detector must never fire, and the run
  // must fall back to plain stepping with identical results.
  run_differential("random-walk", Topo::kRing, /*rotating=*/true, 6, 2,
                   /*expect_engaged=*/false);
}

TEST(CycleFastForwardTest, SsyncRoundRobinActivation) {
  // Round-robin activation multiplies the environment period by k; the
  // aligned sampling must still find the cycle.
  const Ring ring(6);
  for (Time horizon = kHorizon; horizon < kHorizon + 3; ++horizon) {
    EngineOptions options;
    options.fast_forward.enabled = true;
    Engine ff(ring, make_algorithm("pef3+", 7),
              make_oblivious(make_schedule(ring, Topo::kRing, true)),
              Activation::round_robin(ExecutionModel::kSsync),
              spread_placements(ring, 3), options);
    Engine plain(ring, make_algorithm("pef3+", 7),
                 make_oblivious(make_schedule(ring, Topo::kRing, true)),
                 Activation::round_robin(ExecutionModel::kSsync),
                 spread_placements(ring, 3), EngineOptions{});
    ff.run(horizon);
    plain.run(horizon);
    EXPECT_TRUE(ff.fast_forwarded());
    EXPECT_EQ(ff.detected_period() % 3, 0u);  // multiple of the env period
    expect_same(ff, plain);
  }
}

TEST(CycleFastForwardTest, BernoulliScheduleRefusesEligibility) {
  // A stochastic schedule must silently run plain — bit-identical, no
  // fast-forward telemetry.
  const Ring ring(6);
  const auto build = [&](bool ff) {
    EngineOptions options;
    options.fast_forward.enabled = ff;
    return Engine(ring, make_algorithm("pef3+", 7),
                  std::make_unique<ObliviousAdversary>(
                      std::make_shared<BernoulliSchedule>(ring, 0.5, 99)),
                  spread_placements(ring, 3), options);
  };
  Engine ff = build(true);
  Engine plain = build(false);
  ff.run(5000);
  plain.run(5000);
  EXPECT_FALSE(ff.fast_forwarded());
  expect_same(ff, plain);
}

// ---------------------------------------------------------------------------
// Batch engine differentials: lanes detect independently, retire through
// ragged-horizon compaction, and must still match solo PLAIN engines.

/// One deterministic activation regime of the batch differential: FSYNC's
/// default, or a full or round-robin SSYNC / ASYNC activation (round-robin
/// multiplies the sampling lattice by k, and ASYNC adds the phase planes
/// and pending views to the packed state).
struct LanePolicy {
  const char* name;
  Activation activation;
};

const LanePolicy kLanePolicies[] = {
    {"fsync", Activation{}},
    {"ssync round-robin", Activation::round_robin(ExecutionModel::kSsync)},
    {"ssync full", Activation::full(ExecutionModel::kSsync)},
    {"async lockstep", Activation::full(ExecutionModel::kAsync)},
    {"async round-robin", Activation::round_robin(ExecutionModel::kAsync)},
};

constexpr std::uint32_t kLaneRobots = 3;

/// The graphs the batch differential runs on: the rotating ring, and the
/// static chain, whose one absent edge sends a batch of 32 or more lanes
/// through the split passes (ASYNC's packed state then reads the pending
/// views those write) and a narrower one through the per-bit passes.
struct LaneGraph {
  const char* name;
  Topo topo;
  bool rotating;
  std::uint32_t lanes;
};

const LaneGraph kLaneGraphs[] = {{"rotating ring", Topo::kRing, true, 8},
                                 {"static chain", Topo::kChain, false, 34}};

/// Lane `b`'s scenario as a solo Engine.
Engine make_lane_engine(const Ring& ring, const LaneGraph& graph,
                        const LanePolicy& policy, const std::string& algorithm,
                        std::uint32_t b, const EngineOptions& options) {
  return Engine(ring, make_algorithm(algorithm, b + 1),
                make_oblivious(make_schedule(ring, graph.topo, graph.rotating)),
                policy.activation, random_placements(ring, kLaneRobots, b + 1),
                options);
}

/// The same scenario as one batch replica.
BatchReplica make_lane_replica(const Ring& ring, const LaneGraph& graph,
                               const LanePolicy& policy,
                               const std::string& algorithm, std::uint32_t b,
                               Time horizon) {
  BatchReplica replica;
  replica.algorithm = make_algorithm(algorithm, b + 1);
  replica.placements = random_placements(ring, kLaneRobots, b + 1);
  replica.horizon = horizon;
  replica.adversary =
      make_oblivious(make_schedule(ring, graph.topo, graph.rotating));
  replica.activation = policy.activation;
  return replica;
}

TEST(CycleFastForwardBatchTest, RaggedHorizonsMatchSoloPlainEngines) {
  const Ring ring(7);
  const auto horizon_of = [](std::uint32_t b) {
    return kHorizon + 61 * (b % 5);
  };
  EngineOptions ff_options;
  ff_options.fast_forward.enabled = true;
  for (const LaneGraph& graph : kLaneGraphs) {
    for (const LanePolicy& policy : kLanePolicies) {
      for (const char* algorithm :
           {"pef3+", "oscillating", "keep-direction", "bounce", "pef1"}) {
        SCOPED_TRACE(std::string(graph.name) + " " + policy.name + " " +
                     algorithm);
        std::vector<BatchReplica> replicas;
        for (std::uint32_t b = 0; b < graph.lanes; ++b) {
          replicas.push_back(make_lane_replica(ring, graph, policy,
                                               algorithm, b, horizon_of(b)));
        }
        BatchEngineOptions options;
        options.fast_forward.enabled = true;
        BatchEngine batch(ring, policy.activation.model, std::move(replicas),
                          options);
        batch.run_all();

        for (std::uint32_t b = 0; b < graph.lanes; ++b) {
          SCOPED_TRACE("replica " + std::to_string(b));
          Engine solo = make_lane_engine(ring, graph, policy, algorithm, b,
                                         EngineOptions{});
          solo.run(horizon_of(b));
          Engine solo_ff =
              make_lane_engine(ring, graph, policy, algorithm, b, ff_options);
          solo_ff.run(horizon_of(b));
          EXPECT_TRUE(batch.fast_forwarded(b));
          EXPECT_LT(batch.rounds_simulated(b), horizon_of(b));
          EXPECT_EQ(batch.detected_period(b), solo_ff.detected_period());
          const EngineStats& a = batch.stats(b);
          const EngineStats& s = solo.stats();
          EXPECT_EQ(a.rounds, s.rounds);
          EXPECT_EQ(a.total_moves, s.total_moves);
          EXPECT_EQ(a.tower_rounds, s.tower_rounds);
          EXPECT_EQ(a.tower_formations, s.tower_formations);
          EXPECT_EQ(a.visited_node_count, s.visited_node_count);
          EXPECT_EQ(a.cover_time, s.cover_time);
          const CoverageReport ca = batch.coverage_report(b);
          const CoverageReport cs = solo.coverage_report();
          EXPECT_EQ(ca.visit_counts, cs.visit_counts);
          EXPECT_EQ(ca.max_revisit_gap, cs.max_revisit_gap);
          EXPECT_EQ(ca.max_closed_gap, cs.max_closed_gap);
        }
      }
    }
  }
}

TEST(CycleFastForwardBatchTest, ForcedCollisionsInBatchLanes) {
  constexpr std::uint32_t kBatch = 4;
  const Ring ring(6);
  std::vector<BatchReplica> replicas(kBatch);
  for (std::uint32_t b = 0; b < kBatch; ++b) {
    BatchReplica& replica = replicas[b];
    replica.algorithm = make_algorithm("pef3+", b + 1);
    replica.adversary = std::make_unique<ObliviousAdversary>(
        make_schedule(ring, Topo::kRing, true));
    replica.placements = random_placements(ring, 3, b + 1);
    replica.horizon = kHorizon;
  }
  BatchEngineOptions options;
  options.fast_forward.enabled = true;
  options.fast_forward.hash_mask = 0xF;  // constant collisions
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas),
                    options);
  batch.run_all();
  for (std::uint32_t b = 0; b < kBatch; ++b) {
    SCOPED_TRACE("replica " + std::to_string(b));
    Engine solo(ring, make_algorithm("pef3+", b + 1),
                std::make_unique<ObliviousAdversary>(
                    make_schedule(ring, Topo::kRing, true)),
                random_placements(ring, 3, b + 1), EngineOptions{});
    solo.run(kHorizon);
    EXPECT_TRUE(batch.fast_forwarded(b));
    EXPECT_EQ(batch.stats(b).total_moves, solo.stats().total_moves);
    EXPECT_EQ(batch.coverage_report(b).visit_counts,
              solo.coverage_report().visit_counts);
    EXPECT_EQ(batch.coverage_report(b).max_revisit_gap,
              solo.coverage_report().max_revisit_gap);
  }
}

}  // namespace
}  // namespace pef

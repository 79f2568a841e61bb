// Differential tests for the unified Engine's SSYNC / ASYNC models: the
// Engine (which always runs the devirtualized kernels) must reproduce the
// reference SsyncSimulator / AsyncSimulator (which run the virtual
// Algorithm classes) round-by-round, across every registry algorithm,
// activations (full, round-robin, Bernoulli), adversaries and seeds.  The
// schedules include t-interval and eventual-missing, whose rows the Engine
// refills only at EdgeSchedule::next_change while the references ask every
// round.  FSYNC is pinned to Simulator in fast_engine_test.cpp.
#include "engine/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <thread>
#include <vector>

#include "adversary/greedy_blocker.hpp"
#include "algorithms/registry.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/sweep_runner.hpp"
#include "scheduler/async.hpp"
#include "scheduler/simulator.hpp"
#include "scheduler/ssync.hpp"

namespace pef {
namespace {

constexpr std::uint64_t kSeeds = 10;
constexpr Time kRounds = 300;
constexpr std::uint32_t kNodes = 9;
constexpr std::uint32_t kRobots = 3;

void expect_same_round(const RoundRecord& actual, const RoundRecord& expected,
                       Time t) {
  ASSERT_EQ(actual.time, expected.time);
  ASSERT_EQ(actual.edges, expected.edges) << "round " << t;
  ASSERT_EQ(actual.robots.size(), expected.robots.size());
  for (RobotId r = 0; r < expected.robots.size(); ++r) {
    ASSERT_EQ(actual.robots[r].node_before, expected.robots[r].node_before)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].node_after, expected.robots[r].node_after)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].dir_before, expected.robots[r].dir_before)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].dir_after, expected.robots[r].dir_after)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].moved, expected.robots[r].moved)
        << "round " << t << " robot " << r;
    ASSERT_EQ(actual.robots[r].saw_other_robots,
              expected.robots[r].saw_other_robots)
        << "round " << t << " robot " << r;
  }
}

std::vector<RobotPlacement> placements_for(std::uint32_t k,
                                           std::uint64_t seed) {
  return random_placements(Ring(kNodes), k, seed);
}

// ---------------------------------------------------------------------------
// Every registry algorithm runs on the kernel path.

TEST(KernelDispatchTest, EveryRegistryAlgorithmHasAKernel) {
  for (const std::string& name : algorithm_names()) {
    EXPECT_TRUE(make_algorithm(name, 1)->kernel().has_value()) << name;
  }
}

// ---------------------------------------------------------------------------
// SSYNC: unified Engine vs SsyncSimulator.

struct Scenario {
  const char* name;
  std::function<AdversaryPtr(const Ring&, std::uint64_t)> make_adversary;
  std::function<Activation(std::uint64_t)> make_activation;
};

AdversaryPtr blocker(const Ring& ring, std::uint64_t) {
  return std::make_unique<SsyncBlockingAdversary>(ring);
}

AdversaryPtr bernoulli_schedule(const Ring& ring, std::uint64_t seed) {
  return make_oblivious(std::make_shared<BernoulliSchedule>(ring, 0.6, seed));
}

AdversaryPtr t_interval(const Ring& ring, std::uint64_t seed) {
  return make_oblivious(
      std::make_shared<TIntervalConnectedSchedule>(ring, 4, seed));
}

/// Vanish times spread over the run, one per seed.
AdversaryPtr eventual_missing(const Ring& ring, std::uint64_t seed) {
  return make_oblivious(std::make_shared<EventualMissingEdgeSchedule>(
      std::make_shared<StaticSchedule>(ring),
      static_cast<EdgeId>(seed % ring.edge_count()),
      /*vanish=*/20 * seed));
}

AdversaryPtr greedy(const Ring& ring, std::uint64_t) {
  return std::make_unique<GreedyBlockerAdversary>(ring, /*max_absence=*/4);
}

std::vector<Scenario> ssync_scenarios() {
  const auto round_robin = [](std::uint64_t) {
    return Activation::round_robin(ExecutionModel::kSsync);
  };
  return {
      {"blocker+round-robin", blocker, round_robin},
      {"bernoulli-schedule+bernoulli-activation", bernoulli_schedule,
       [](std::uint64_t seed) {
         return Activation::bernoulli(ExecutionModel::kSsync, 0.6,
                                      derive_seed(seed, 0xac));
       }},
      {"t-interval+round-robin", t_interval, round_robin},
      {"eventual-missing+round-robin", eventual_missing, round_robin},
      {"adaptive-greedy+full", greedy,
       [](std::uint64_t) { return Activation::full(ExecutionModel::kSsync); }},
  };
}

TEST(UnifiedSsyncTest, MatchesReferenceAcrossRegistryAndScenarios) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const Scenario& scenario : ssync_scenarios()) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(algorithm + " vs " + scenario.name + " seed " +
                     std::to_string(seed));
        const Ring ring(kNodes);
        const auto placements = placements_for(kRobots, seed);

        SsyncSimulator reference(ring, make_algorithm(algorithm, seed),
                                 scenario.make_adversary(ring, seed),
                                 scenario.make_activation(seed), placements);
        EngineOptions options;
        options.record_trace = true;
        Engine engine(ring, make_algorithm(algorithm, seed),
                      scenario.make_adversary(ring, seed),
                      scenario.make_activation(seed), placements, options);
        EXPECT_EQ(engine.model(), ExecutionModel::kSsync);
        engine.run(kRounds);
        reference.run(kRounds);
        ASSERT_EQ(engine.trace().rounds().size(), kRounds);
        for (Time t = 0; t < kRounds; ++t) {
          expect_same_round(engine.trace().rounds()[t],
                            reference.trace().rounds()[t], t);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ASYNC: unified Engine vs AsyncSimulator.

std::vector<Scenario> async_scenarios() {
  const auto round_robin = [](std::uint64_t) {
    return Activation::round_robin(ExecutionModel::kAsync);
  };
  return {
      {"move-blocker+round-robin", blocker, round_robin},
      {"bernoulli-schedule+bernoulli-phases", bernoulli_schedule,
       [](std::uint64_t seed) {
         return Activation::bernoulli(ExecutionModel::kAsync, 0.6,
                                      derive_seed(seed, 0xa5));
       }},
      {"t-interval+round-robin", t_interval, round_robin},
      {"eventual-missing+round-robin", eventual_missing, round_robin},
      {"adaptive-greedy+lockstep", greedy,
       [](std::uint64_t) { return Activation::full(ExecutionModel::kAsync); }},
  };
}

TEST(UnifiedAsyncTest, MatchesReferenceAcrossRegistryAndScenarios) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const Scenario& scenario : async_scenarios()) {
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(algorithm + " vs " + scenario.name + " seed " +
                     std::to_string(seed));
        const Ring ring(kNodes);
        const auto placements = placements_for(kRobots, seed);

        AsyncSimulator reference(ring, make_algorithm(algorithm, seed),
                                 scenario.make_adversary(ring, seed),
                                 scenario.make_activation(seed), placements);
        EngineOptions options;
        options.record_trace = true;
        Engine engine(ring, make_algorithm(algorithm, seed),
                      scenario.make_adversary(ring, seed),
                      scenario.make_activation(seed), placements, options);
        EXPECT_EQ(engine.model(), ExecutionModel::kAsync);
        engine.run(kRounds);
        reference.run(kRounds);
        for (Time t = 0; t < kRounds; ++t) {
          expect_same_round(engine.trace().rounds()[t],
                            reference.trace().rounds()[t], t);
        }
        // Final phase machines agree for every robot (per-tick phase
        // agreement is implied by the round records: each advancing
        // robot's record shows which phase fired).
        for (RobotId r = 0; r < kRobots; ++r) {
          ASSERT_EQ(engine.phase_of(r), reference.phase_of(r)) << r;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Incremental stats stay valid in the new models.

TEST(UnifiedEngineTest, SsyncStatsAccumulateWithoutTrace) {
  const Ring ring(6);
  Engine engine(ring, make_algorithm("pef3+"),
                std::make_unique<SsyncBlockingAdversary>(ring),
                Activation::round_robin(ExecutionModel::kSsync),
                spread_placements(ring, 3));
  EXPECT_FALSE(engine.recording_trace());
  engine.run(600);
  // The [10] impossibility: frozen forever, only the 3 start nodes visited.
  EXPECT_EQ(engine.stats().rounds, 600u);
  EXPECT_EQ(engine.stats().total_moves, 0u);
  EXPECT_EQ(engine.stats().visited_node_count, 3u);
}

TEST(UnifiedEngineTest, FsyncFullMaskFreezesTheBlocker) {
  // FSYNC hands the adversary every robot: the blocker removes the edges
  // beside all of them every round.
  const Ring ring(6);
  Engine engine(ring, make_algorithm("pef3+"),
                std::make_unique<SsyncBlockingAdversary>(ring),
                spread_placements(ring, 3));
  engine.run(300);
  EXPECT_EQ(engine.stats().total_moves, 0u);
  EXPECT_EQ(engine.stats().visited_node_count, 3u);
}

TEST(UnifiedEngineTest, AsyncStatsAccumulateWithoutTrace) {
  const Ring ring(6);
  Engine engine(ring, make_algorithm("pef3+"),
                std::make_unique<AsyncMoveBlocker>(ring),
                Activation::round_robin(ExecutionModel::kAsync),
                spread_placements(ring, 3));
  engine.run(900);
  EXPECT_EQ(engine.stats().total_moves, 0u);
  EXPECT_EQ(engine.stats().visited_node_count, 3u);
}

TEST(UnifiedEngineTest, SweepGridSpansModels) {
  SweepSpec grid;
  grid.algorithms = {"pef3+"};
  grid.adversaries = {adversary_config(AdversaryKind::kStatic)};
  grid.models = {ExecutionModel::kFsync, ExecutionModel::kSsync,
                 ExecutionModel::kAsync};
  grid.ring_sizes = {6};
  grid.robot_counts = {3};
  grid.seeds = {1, 2};
  grid.horizon = 400;

  const SweepResult serial = SweepRunner(1).run(grid);
  const SweepResult parallel = SweepRunner(4).run(grid);
  ASSERT_EQ(serial.cells.size(), 6u);
  EXPECT_EQ(serial.to_json(), parallel.to_json());
  // One seed group per model: the parallel run starts min(4, hardware
  // threads, 3) workers.
  std::uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  EXPECT_EQ(serial.threads, 1u);
  EXPECT_EQ(parallel.threads, std::min(3u, hardware));
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_EQ(serial.cells[i].model, grid.models[i / 2]);
  }
  // Distinct models get distinct derived streams.
  EXPECT_NE(effective_seed(1, 0, 0, 6, 3, 0), effective_seed(1, 0, 0, 6, 3, 1));
  // FSYNC on a static ring explores; SSYNC/ASYNC under fair Bernoulli
  // activation on a static ring explore too (only slower).
  for (const SweepCell& cell : serial.cells) {
    EXPECT_TRUE(cell.covered) << to_string(cell.model) << " seed "
                              << cell.seed;
  }
}

}  // namespace
}  // namespace pef

// Differential tests for the unified Engine's SSYNC / ASYNC models: the
// Engine (which always runs the devirtualized kernels) must reproduce the
// reference SsyncSimulator / AsyncSimulator (which run the virtual
// Algorithm classes) round-by-round, across every registry algorithm,
// activations (full, round-robin, Bernoulli), adversaries and seeds.  FSYNC is
// pinned to Simulator in fast_engine_test.cpp.
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

struct SsyncScenario {
  const char* name;
  std::function<std::unique_ptr<SsyncAdversary>(const Ring&, std::uint64_t)>
      make_adversary;
  std::function<Activation(std::uint64_t)> make_activation;
};

std::vector<SsyncScenario> ssync_scenarios() {
  return {
      {"blocker+round-robin",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<SsyncBlockingAdversary>(ring);
       },
       [](std::uint64_t) {
         return Activation::round_robin(ExecutionModel::kSsync);
       }},
      {"bernoulli-schedule+bernoulli-activation",
       [](const Ring& ring, std::uint64_t seed) {
         return std::make_unique<SsyncObliviousAdversary>(
             std::make_shared<BernoulliSchedule>(ring, 0.6, seed));
       },
       [](std::uint64_t seed) {
         return Activation::bernoulli(ExecutionModel::kSsync, 0.6,
                                      derive_seed(seed, 0xac));
       }},
      {"adaptive-greedy+full",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<SsyncFromFsyncAdversary>(
             std::make_unique<GreedyBlockerAdversary>(ring,
                                                      /*max_absence=*/4));
       },
       [](std::uint64_t) { return Activation::full(ExecutionModel::kSsync); }},
  };
}

TEST(UnifiedSsyncTest, MatchesReferenceAcrossRegistryAndScenarios) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const SsyncScenario& scenario : ssync_scenarios()) {
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

struct AsyncScenario {
  const char* name;
  std::function<std::unique_ptr<SsyncAdversary>(const Ring&, std::uint64_t)>
      make_adversary;
  std::function<Activation(std::uint64_t)> make_activation;
};

std::vector<AsyncScenario> async_scenarios() {
  return {
      {"move-blocker+round-robin",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<AsyncMoveBlocker>(ring);
       },
       [](std::uint64_t) {
         return Activation::round_robin(ExecutionModel::kAsync);
       }},
      {"bernoulli-schedule+bernoulli-phases",
       [](const Ring& ring, std::uint64_t seed) {
         return std::make_unique<SsyncObliviousAdversary>(
             std::make_shared<BernoulliSchedule>(ring, 0.6, seed));
       },
       [](std::uint64_t seed) {
         return Activation::bernoulli(ExecutionModel::kAsync, 0.6,
                                      derive_seed(seed, 0xa5));
       }},
      {"adaptive-greedy+lockstep",
       [](const Ring& ring, std::uint64_t) {
         return std::make_unique<SsyncFromFsyncAdversary>(
             std::make_unique<GreedyBlockerAdversary>(ring,
                                                      /*max_absence=*/4));
       },
       [](std::uint64_t) { return Activation::full(ExecutionModel::kAsync); }},
  };
}

TEST(UnifiedAsyncTest, MatchesReferenceAcrossRegistryAndScenarios) {
  for (const std::string& algorithm : algorithm_names()) {
    for (const AsyncScenario& scenario : async_scenarios()) {
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

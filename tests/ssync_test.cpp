// Tests for the SSYNC extension (the [10] impossibility argument).
#include "scheduler/ssync.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "dynamic_graph/properties.hpp"
#include "dynamic_graph/schedules.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

TEST(SsyncTest, FullActivationMatchesFsyncEngine) {
  // With everyone activated every round, the SSYNC engine must reproduce
  // the FSYNC engine exactly — a cross-check of the two implementations.
  const Ring ring(7);
  auto schedule = std::make_shared<BernoulliSchedule>(ring, 0.6, 77);
  const auto placements = spread_placements(ring, 3);

  Simulator fsync(ring, make_algorithm("pef3+"), make_oblivious(schedule),
                  placements);
  SsyncSimulator ssync(ring, make_algorithm("pef3+"),
                       make_oblivious(schedule),
                       Activation::full(ExecutionModel::kSsync), placements);
  fsync.run(300);
  ssync.run(300);
  for (RobotId r = 0; r < 3; ++r) {
    for (Time t = 0; t <= 300; ++t) {
      ASSERT_EQ(fsync.trace().position_at(r, t),
                ssync.trace().position_at(r, t))
          << "r=" << r << " t=" << t;
    }
  }
}

TEST(SsyncTest, BlockerFreezesEveryAlgorithm) {
  // Round-robin activation + both-adjacent-edges removal: no robot ever
  // moves, for any algorithm — the executable content of the SSYNC
  // impossibility of [10].
  for (const std::string& name : algorithm_names()) {
    const Ring ring(6);
    SsyncSimulator sim(ring, make_algorithm(name, 3),
                       std::make_unique<SsyncBlockingAdversary>(ring),
                       Activation::round_robin(ExecutionModel::kSsync),
                       spread_placements(ring, 3));
    sim.run(600);
    for (RobotId r = 0; r < 3; ++r) {
      EXPECT_EQ(sim.trace().position_at(r, 600),
                sim.trace().position_at(r, 0))
          << name;
    }
    EXPECT_EQ(analyze_coverage(sim.trace()).visited_node_count, 3u) << name;
  }
}

TEST(SsyncTest, BlockerKeepsEveryEdgeRecurrent) {
  // The blocker's removals target only the activated robot's edges, so with
  // round-robin activation every edge is present at least whenever distant
  // robots are activated: the realized graph is connected-over-time.
  const Ring ring(6);
  SsyncSimulator sim(ring, make_algorithm("pef3+"),
                     std::make_unique<SsyncBlockingAdversary>(ring),
                     Activation::round_robin(ExecutionModel::kSsync),
                     spread_placements(ring, 3));
  sim.run(600);
  const auto audit =
      audit_connectivity(ring, sim.trace().edge_history(), /*patience=*/150);
  EXPECT_TRUE(audit.connected_over_time);
  EXPECT_TRUE(audit.suspected_missing.empty());
}

TEST(SsyncTest, RoundRobinIsFair) {
  Activation activation = Activation::round_robin(ExecutionModel::kSsync);
  std::vector<int> counts(3, 0);
  ActivationMask mask;
  for (Time t = 0; t < 30; ++t) {
    activation.fill(t, 3, mask);
    int active = 0;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i]) {
        ++active;
        ++counts[i];
      }
    }
    EXPECT_EQ(active, 1);
  }
  for (int c : counts) EXPECT_EQ(c, 10);
}

TEST(SsyncTest, BernoulliActivationNeverEmpty) {
  Activation activation =
      Activation::bernoulli(ExecutionModel::kSsync, 0.01, 5);
  ActivationMask mask;
  for (Time t = 0; t < 200; ++t) {
    activation.fill(t, 4, mask);
    ASSERT_EQ(mask.size(), 4u);
    EXPECT_TRUE(std::any_of(mask.begin(), mask.end(),
                            [](std::uint8_t b) { return b != 0; }));
  }
}

// Every engine and reference simulator draws its SSYNC and ASYNC masks
// through Activation::fill, so the differential suites cannot see a wrong
// stream.  These FNV-1a hashes of the masks of rounds [0, 200) pin every
// rule at k = 1, 3, 13 and 70; each rule draws the same masks under either
// model.
// Regenerate them only after an intentional change to a stream, from the
// build before that change.
TEST(SsyncTest, EveryActivationFillsItsPinnedMasks) {
  struct Pins {
    std::uint32_t k;
    std::uint64_t masks[10];  // in the order of `activations` below
  };
  const Pins all_pins[] = {
      {1,
       {0x0104e3e54d21470dULL, 0x0104e3e54d21470dULL, 0x0104e3e54d21470dULL,
        0x0104e3e54d21470dULL, 0x0104e3e54d21470dULL, 0x0104e3e54d21470dULL,
        0x0104e3e54d21470dULL, 0x0104e3e54d21470dULL, 0x0104e3e54d21470dULL,
        0x0104e3e54d21470dULL}},
      {3,
       {0xfc28b4c6ca3ffdddULL, 0x8a67792496cbf86fULL, 0x8174b89dffc4f54bULL,
        0x75362306b22e634dULL, 0x9d377c4b3e58b1c6ULL, 0x0ba8df8d6eed5ac5ULL,
        0xfc28b4c6ca3ffdddULL, 0xfc28b4c6ca3ffdddULL, 0x7e277da92e4def54ULL,
        0x615c26abd218af28ULL}},
      {13,
       {0x5bad7f7a96c4bbedULL, 0x1d7f0612c5ae3f75ULL, 0x7c2b4f6b875d2cd1ULL,
        0x05e5e2228b7076c3ULL, 0x39bd228c7b43fc17ULL, 0x90bf92d92369e9c5ULL,
        0x5bad7f7a96c4bbedULL, 0x5bad7f7a96c4bbedULL, 0x4650f592d7d6161dULL,
        0xe71829c419b8d3e8ULL}},
      {70,
       {0xa287b9b0cfc35f95ULL, 0x0b0146fde74d4fddULL, 0x9a6436a5cdd51677ULL,
        0x5a24d4077d89485bULL, 0xe5243f805a5ed53eULL, 0xb8f686af8d2718d6ULL,
        0xa287b9b0cfc35f95ULL, 0xa287b9b0cfc35f95ULL, 0xb88f3a02d8651d79ULL,
        0x71ccaa5b01bb3713ULL}},
  };
  const auto hash_masks = [](Activation activation, std::uint32_t k) {
    ActivationMask mask;
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (Time t = 0; t < 200; ++t) {
      // A stale, wrongly sized mask: fill must resize and overwrite it.
      mask.assign(k + 1, 7);
      activation.fill(t, k, mask);
      EXPECT_EQ(mask.size(), k) << "t=" << t;
      for (const std::uint8_t robot : mask) {
        hash ^= robot;
        hash *= 0x100000001b3ULL;
      }
    }
    return hash;
  };
  for (const Pins& pins : all_pins) {
    for (const ExecutionModel model :
         {ExecutionModel::kSsync, ExecutionModel::kAsync}) {
      const std::vector<Activation> activations = {
          Activation::full(model),
          Activation::round_robin(model),
          Activation::bernoulli(model, 0.0, 5),
          Activation::bernoulli(model, 0.0, 11),
          Activation::bernoulli(model, 0.3, 5),
          Activation::bernoulli(model, 0.3, 11),
          Activation::bernoulli(model, 1.0, 5),
          Activation::bernoulli(model, 1.0, 11),
          standard_ssync_activation(0.5, 7),
          standard_async_phases(0.5, 7),
      };
      for (std::size_t i = 0; i < activations.size(); ++i) {
        SCOPED_TRACE("k=" + std::to_string(pins.k) + " " + to_string(model) +
                     " #" + std::to_string(i));
        EXPECT_EQ(hash_masks(activations[i], pins.k), pins.masks[i]);
      }
    }
  }
}

TEST(SsyncTest, PefThreePlusSurvivesFairSsyncWithoutEdgeAdversary) {
  // With a benign static graph and random fair activation PEF_3+ still
  // explores — the impossibility needs the *edge* adversary, not mere
  // asynchrony of activation.
  const Ring ring(6);
  auto schedule = std::make_shared<StaticSchedule>(ring);
  SsyncSimulator sim(ring, make_algorithm("pef3+"),
                     make_oblivious(schedule),
                     Activation::bernoulli(ExecutionModel::kSsync, 0.7, 11),
                     spread_placements(ring, 3));
  sim.run(2000);
  EXPECT_EQ(analyze_coverage(sim.trace()).visited_node_count, 6u);
}

}  // namespace
}  // namespace pef

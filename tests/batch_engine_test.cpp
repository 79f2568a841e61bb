// Differential tests for BatchEngine: a batch of B replicas must be
// BIT-IDENTICAL to B independent Engine runs — every replica's
// configuration at every round boundary, stats and coverage — across every
// registry kernel, every execution model, adversary families (oblivious and
// adaptive) and ragged per-replica horizons (early termination compacts
// lanes out mid-run; the survivors must not notice).  The families whose
// rows miss a few edges (t-interval, chains, bounded-absence, the cage) run
// kWideBatch lanes, so SSYNC and ASYNC take their split passes until
// retirements narrow the batch and their per-bit passes after.  So does one
// mixed batch per model whose lanes cycle through static, t-interval,
// greedy-blocker and Bernoulli rows (mixed_family).  T-interval lanes
// patch their rows from the schedule's listed absent edge; those run on
// 130 nodes too (rows of three words), and a counting schedule shows the
// batch never fills their rows whole.
#include "engine/batch_engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <typeindex>
#include <typeinfo>
#include <vector>

#include "adversary/adaptive_missing_edge.hpp"
#include "adversary/confinement.hpp"
#include "adversary/greedy_blocker.hpp"
#include "adversary/ssync_adversary.hpp"
#include "algorithms/registry.hpp"
#include "common/rng.hpp"
#include "core/spec.hpp"
#include "dynamic_graph/chain.hpp"
#include "dynamic_graph/markov_schedule.hpp"
#include "dynamic_graph/schedules.hpp"
#include "scheduler/simulator.hpp"
#include "isa_tier_check.hpp"

namespace pef {
namespace {

// First, so a misspelled PEF_BATCH_ISA registration fails before the
// kernels re-test the native tier.
TEST(IsaTierTest, ActiveTierIsTheOnePefBatchIsaNames) {
  expect_active_isa_is_the_named_tier();
}

constexpr std::uint32_t kBatch = 10;  // one replica per seed
/// Wide enough for SSYNC and ASYNC to split their rows (the batch
/// engine's threshold is 32 lanes) until the first retirements.
constexpr std::uint32_t kWideBatch = 40;
constexpr std::uint32_t kNodes = 9;
constexpr std::uint32_t kRobots = 3;
constexpr Time kBaseHorizon = 160;
/// The cage's window is nodes {0, .., kCageWidth - 1}.
constexpr std::uint32_t kCageWidth = 4;

/// Ragged horizons: replicas retire at different rounds, exercising the
/// lane-compaction path on every batch.
Time horizon_of(std::uint32_t replica) {
  return kBaseHorizon + 37 * (replica % 4);
}

/// Where a scenario's robots start: random_placements on the whole ring,
/// or on distinct nodes of the cage's window (the cage refuses a robot
/// outside it).
using PlaceFn = std::vector<RobotPlacement> (*)(const Ring&, std::uint64_t);

std::vector<RobotPlacement> anywhere(const Ring& ring, std::uint64_t seed) {
  return random_placements(ring, kRobots, seed);
}

std::vector<RobotPlacement> in_cage(const Ring&, std::uint64_t seed) {
  return random_placements(Ring(kCageWidth), kRobots, seed);
}

/// The few-absent-edge schedules.
SchedulePtr t_interval(const Ring& ring, std::uint64_t seed) {
  return std::make_shared<TIntervalConnectedSchedule>(ring, 3, seed);
}
SchedulePtr static_chain(const Ring& ring) {
  return ChainSchedule::cut_last(std::make_shared<StaticSchedule>(ring));
}
SchedulePtr chain_t_interval(const Ring& ring, std::uint64_t seed) {
  return ChainSchedule::cut_last(t_interval(ring, seed));
}
/// About a quarter of the edges absent: rows switch between at most two
/// absent edges and more from round to round.
SchedulePtr bounded_absence(const Ring& ring, std::uint64_t seed) {
  return std::make_shared<BoundedAbsenceSchedule>(ring, 2, 8, seed);
}

/// The adaptive adversaries.
AdversaryPtr greedy(const Ring& ring, std::uint64_t) {
  return std::make_unique<GreedyBlockerAdversary>(ring, /*max_absence=*/4);
}
AdversaryPtr cage(const Ring& ring, std::uint64_t) {
  return std::make_unique<ConfinementAdversary>(ring, 0, kCageWidth);
}
AdversaryPtr blocker(const Ring& ring, std::uint64_t) {
  return std::make_unique<SsyncBlockingAdversary>(ring);
}

/// Lane b = seed - 1 of a mixed batch, by b % 4: static, t-interval,
/// greedy-blocker or Bernoulli.  Every 8-lane chunk mixes the four edge
/// sources, and horizon_of retires them in that order, so compaction
/// moves live blocker and Bernoulli lanes (with their absence runs and
/// key tables) into the slots of retired ones.  At p = 0.95 most
/// Bernoulli lanes see every edge beside their robots present, so in
/// some rounds all of them are full and the other lanes' rows pick the
/// pass.
AdversaryPtr mixed_family(const Ring& ring, std::uint64_t seed) {
  switch ((seed - 1) % 4) {
    case 0:
      return make_oblivious(std::make_shared<StaticSchedule>(ring));
    case 1:
      return make_oblivious(t_interval(ring, seed));
    case 2:
      return greedy(ring, seed);
    default:
      return make_oblivious(
          std::make_shared<BernoulliSchedule>(ring, 0.95, seed));
  }
}

/// Every robot's node, local direction and chirality agree.  Replica and
/// round only label a failure.
void expect_same_configuration(const Configuration& actual,
                               const Configuration& expected,
                               std::uint32_t replica, Time t) {
  ASSERT_EQ(actual.robot_count(), expected.robot_count());
  for (RobotId r = 0; r < expected.robot_count(); ++r) {
    const RobotSnapshot& a = actual.robot(r);
    const RobotSnapshot& e = expected.robot(r);
    ASSERT_EQ(a.node, e.node)
        << "replica " << replica << " time " << t << " robot " << r;
    ASSERT_EQ(a.dir, e.dir)
        << "replica " << replica << " time " << t << " robot " << r;
    ASSERT_EQ(a.chirality, e.chirality)
        << "replica " << replica << " time " << t << " robot " << r;
  }
}

/// The fields expect_same_stats compares, for a cheap test per boundary.
auto stats_fields(const EngineStats& s) {
  return std::tie(s.rounds, s.total_moves, s.tower_rounds, s.tower_formations,
                  s.visited_node_count, s.cover_time);
}

void expect_same_stats(const EngineStats& actual, const EngineStats& expected) {
  EXPECT_EQ(actual.rounds, expected.rounds);
  EXPECT_EQ(actual.total_moves, expected.total_moves);
  EXPECT_EQ(actual.tower_rounds, expected.tower_rounds);
  EXPECT_EQ(actual.tower_formations, expected.tower_formations);
  EXPECT_EQ(actual.visited_node_count, expected.visited_node_count);
  EXPECT_EQ(actual.cover_time, expected.cover_time);
}

void expect_same_coverage(const CoverageReport& actual,
                          const CoverageReport& expected) {
  EXPECT_EQ(actual.visit_counts, expected.visit_counts);
  EXPECT_EQ(actual.cover_time, expected.cover_time);
  EXPECT_EQ(actual.visited_node_count, expected.visited_node_count);
  EXPECT_EQ(actual.max_revisit_gap, expected.max_revisit_gap);
  EXPECT_EQ(actual.max_closed_gap, expected.max_closed_gap);
  EXPECT_EQ(actual.nodes_visited_in_suffix, expected.nodes_visited_in_suffix);
  EXPECT_EQ(actual.suffix_window, expected.suffix_window);
  EXPECT_EQ(actual.horizon, expected.horizon);
}

/// Runs one (algorithm, model, scenario) batch against its B solo Engine
/// twins on a ring of `nodes` nodes.  `make_replica` and `make_engine` must
/// construct the same scenario from the same seed (fresh objects each
/// call).  Two batches run: one driven by step() in lock-step with the solo
/// Engines, its every replica's configuration and stats pinned at every
/// boundary (the batch folds its lane counters into the stats at each
/// step), and one by run_all() (the tiled path sweeps take).  Both must end
/// on the solo stats, coverage and configurations.
void run_differential(
    const std::string& label,
    const std::function<BatchReplica(std::uint32_t replica)>& make_replica,
    const std::function<Engine(std::uint32_t replica)>& make_engine,
    ExecutionModel model, std::uint32_t lanes = kBatch,
    std::uint32_t nodes = kNodes) {
  SCOPED_TRACE(label);
  const Ring ring(nodes);
  const auto replicas = [&] {
    std::vector<BatchReplica> out;
    out.reserve(lanes);
    for (std::uint32_t b = 0; b < lanes; ++b) out.push_back(make_replica(b));
    return out;
  };
  std::vector<std::unique_ptr<Engine>> solo;
  for (std::uint32_t b = 0; b < lanes; ++b) {
    solo.push_back(std::make_unique<Engine>(make_engine(b)));
  }

  BatchEngine stepped(ring, model, replicas());
  ASSERT_EQ(stepped.active_replicas(), lanes);
  for (Time t = 0;; ++t) {
    for (std::uint32_t b = 0; b < lanes; ++b) {
      expect_same_configuration(stepped.snapshot(b), solo[b]->snapshot(), b,
                                t);
      if (::testing::Test::HasFatalFailure()) return;
      if (stats_fields(stepped.stats(b)) != stats_fields(solo[b]->stats())) {
        SCOPED_TRACE("replica " + std::to_string(b) + " time " +
                     std::to_string(t));
        expect_same_stats(stepped.stats(b), solo[b]->stats());
        return;
      }
    }
    if (stepped.active_replicas() == 0) break;
    stepped.step();
    for (std::uint32_t b = 0; b < lanes; ++b) {
      if (solo[b]->now() < horizon_of(b)) solo[b]->step();
    }
  }

  BatchEngine ran(ring, model, replicas());
  ran.run_all();
  ASSERT_EQ(ran.active_replicas(), 0u);

  for (std::uint32_t b = 0; b < lanes; ++b) {
    SCOPED_TRACE("replica " + std::to_string(b));
    ASSERT_EQ(solo[b]->now(), horizon_of(b));
    for (const BatchEngine* batch : {&stepped, &ran}) {
      expect_same_stats(batch->stats(b), solo[b]->stats());
      expect_same_coverage(batch->coverage_report(b),
                           solo[b]->coverage_report());
      expect_same_configuration(batch->snapshot(b), solo[b]->snapshot(), b,
                                horizon_of(b));
    }
  }
}

// ---------------------------------------------------------------------------
// FSYNC: oblivious (static, Bernoulli, eventual-missing, t-interval, static
// chain, chain under t-interval, bounded-absence) and adaptive
// (greedy-blocker, cage, and the SSYNC blocker, which the full mask
// freezes) adversaries.

struct FsyncFamily {
  const char* name;
  std::function<AdversaryPtr(const Ring&, std::uint64_t)> make;
  PlaceFn place = anywhere;
  std::uint32_t lanes = kBatch;
};

std::vector<FsyncFamily> fsync_families() {
  return {
      {"static",
       [](const Ring& ring, std::uint64_t) {
         return make_oblivious(std::make_shared<StaticSchedule>(ring));
       }},
      {"bernoulli",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(
             std::make_shared<BernoulliSchedule>(ring, 0.5, seed));
       }},
      {"eventual-missing",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(std::make_shared<EventualMissingEdgeSchedule>(
             std::make_shared<StaticSchedule>(ring),
             static_cast<EdgeId>(seed % ring.edge_count()), /*vanish=*/5));
       }},
      {"greedy-blocker", greedy},
      {"ssync-blocker", blocker},
      {"t-interval",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(t_interval(ring, seed));
       },
       anywhere, kWideBatch},
      // Vanish times spread across the ragged horizons: a lane whose edge
      // has yet to vanish is compacted into the slot of one that retired
      // (its refill round must travel with it).
      {"eventual-missing, late vanish",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(std::make_shared<EventualMissingEdgeSchedule>(
             std::make_shared<StaticSchedule>(ring),
             static_cast<EdgeId>(seed % ring.edge_count()),
             /*vanish=*/150 + 31 * (seed % 5)));
       },
       anywhere, kWideBatch},
      {"static chain",
       [](const Ring& ring, std::uint64_t) {
         return make_oblivious(static_chain(ring));
       },
       anywhere, kWideBatch},
      {"chain+t-interval",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(chain_t_interval(ring, seed));
       },
       anywhere, kWideBatch},
      {"bounded-absence",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(bounded_absence(ring, seed));
       },
       anywhere, kWideBatch},
      {"cage", cage, in_cage, kWideBatch},
      {"mixed families", mixed_family, anywhere, kWideBatch},
  };
}

TEST(BatchEngineFsyncTest, MatchesSoloEnginesAcrossRegistryAndAdversaries) {
  const Ring ring(kNodes);
  for (const std::string& algorithm : algorithm_names()) {
    for (const FsyncFamily& family : fsync_families()) {
      run_differential(
          algorithm + " vs " + family.name,
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            BatchReplica replica;
            replica.algorithm = make_algorithm(algorithm, seed);
            replica.adversary = family.make(ring, seed);
            replica.placements = family.place(ring, seed);
            replica.horizon = horizon_of(b);
            return replica;
          },
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            return Engine(ring, make_algorithm(algorithm, seed),
                          family.make(ring, seed), family.place(ring, seed));
          },
          ExecutionModel::kFsync, family.lanes);
    }
  }
}

// ---------------------------------------------------------------------------
// SSYNC and ASYNC: blocking, oblivious and adaptive adversaries under
// round-robin, Bernoulli and full activation.

struct Scenario {
  const char* name;
  std::function<AdversaryPtr(const Ring&, std::uint64_t)> make_adversary;
  std::function<Activation(std::uint64_t)> make_activation;
  PlaceFn place = anywhere;
  std::uint32_t lanes = kBatch;
};

/// The scenarios of one model: the same families, each under the
/// activation its name gives ("full" is SSYNC's lockstep; under ASYNC it
/// advances every robot one phase per tick).
std::vector<Scenario> scenarios(ExecutionModel model) {
  const std::uint64_t salt = model == ExecutionModel::kSsync ? 0xac : 0xa5;
  const auto bernoulli = [model, salt](std::uint64_t seed) {
    return Activation::bernoulli(model, 0.6, derive_seed(seed, salt));
  };
  const auto round_robin = [model](std::uint64_t) {
    return Activation::round_robin(model);
  };
  const auto full = [model](std::uint64_t) { return Activation::full(model); };
  return {
      {"blocker+round-robin", blocker, round_robin},
      {"bernoulli-schedule+bernoulli",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(
             std::make_shared<BernoulliSchedule>(ring, 0.6, seed));
       },
       bernoulli},
      {"adaptive-greedy+full", greedy, full},
      {"t-interval+bernoulli",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(t_interval(ring, seed));
       },
       bernoulli, anywhere, kWideBatch},
      {"static-chain+full",
       [](const Ring& ring, std::uint64_t) {
         return make_oblivious(static_chain(ring));
       },
       full, anywhere, kWideBatch},
      {"chain-t-interval+round-robin",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(chain_t_interval(ring, seed));
       },
       round_robin, anywhere, kWideBatch},
      {"bounded-absence+bernoulli",
       [](const Ring& ring, std::uint64_t seed) {
         return make_oblivious(bounded_absence(ring, seed));
       },
       bernoulli, anywhere, kWideBatch},
      {"cage+bernoulli", cage, bernoulli, in_cage, kWideBatch},
      {"mixed-families+bernoulli", mixed_family, bernoulli, anywhere,
       kWideBatch},
  };
}

/// Every scenario of `model` against its solo Engines, for every registry
/// algorithm.
void run_scenarios(ExecutionModel model) {
  const Ring ring(kNodes);
  for (const std::string& algorithm : algorithm_names()) {
    for (const Scenario& scenario : scenarios(model)) {
      run_differential(
          algorithm + " vs " + scenario.name,
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            BatchReplica replica;
            replica.algorithm = make_algorithm(algorithm, seed);
            replica.adversary = scenario.make_adversary(ring, seed);
            replica.activation = scenario.make_activation(seed);
            replica.placements = scenario.place(ring, seed);
            replica.horizon = horizon_of(b);
            return replica;
          },
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            return Engine(ring, make_algorithm(algorithm, seed),
                          scenario.make_adversary(ring, seed),
                          scenario.make_activation(seed),
                          scenario.place(ring, seed));
          },
          model, scenario.lanes);
    }
  }
}

TEST(BatchEngineSsyncTest, MatchesSoloEnginesAcrossRegistryAndScenarios) {
  run_scenarios(ExecutionModel::kSsync);
}

TEST(BatchEngineAsyncTest, MatchesSoloEnginesAcrossRegistryAndScenarios) {
  run_scenarios(ExecutionModel::kAsync);
}

// ---------------------------------------------------------------------------
// The batched round prologue, pinned through the standard wiring: every
// registry kernel x {SSYNC(activation_p in {0.3, 1.0}), ASYNC} x
// schedule-backed AND adaptive registry adversary kinds x 10 ragged-horizon
// seeds must match solo Engines round by round.  This is the differential
// pin of the mask/edge word planes: the devirtualized Bernoulli activation
// kernels (p=0.3 sparse masks, p=1.0 full masks including the
// forced-nonempty fallback path), the schedule-filled edge rows (no
// Configuration mirror at all), the greedy blocker's plane-computed rows
// and the lazily-mirrored virtual path of adaptive-missing all feed the
// same word-plane passes.

struct ModelCase {
  const char* name;
  ExecutionModel model;
  double activation_p;
};

std::vector<ModelCase> model_cases() {
  return {{"ssync-p0.3", ExecutionModel::kSsync, 0.3},
          {"ssync-p1.0", ExecutionModel::kSsync, 1.0},
          {"async-p0.5", ExecutionModel::kAsync, 0.5}};
}

/// Two schedule-backed kinds (plane-filled, mirror-free) and two adaptive
/// ones: greedy-blocker (row computed from the planes) and adaptive-missing
/// (gamma mirror).  BatchEngine routes each lane by the type of its
/// resolved adversary, or of the schedule an ObliviousAdversary holds, so
/// that type is asserted to keep the matrix honest if resolution changes.
std::vector<AdversaryConfig> registry_adversary_matrix() {
  // (cage/proof stay out: the staged lower-bound adversaries require the
  // robots to start inside their window, which random placements violate.)
  const std::vector<std::pair<AdversaryConfig, std::type_index>> picks = {
      {adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
       typeid(BernoulliSchedule)},
      {adversary_config(AdversaryKind::kMarkov), typeid(MarkovSchedule)},
      {adversary_config(AdversaryKind::kGreedyBlocker),
       typeid(GreedyBlockerAdversary)},
      {adversary_config(AdversaryKind::kAdaptiveMissing),
       typeid(AdaptiveMissingEdgeAdversary)},
  };
  const Ring ring(kNodes);
  std::vector<AdversaryConfig> configs;
  for (const auto& [config, expected] : picks) {
    const AdversaryPtr adversary =
        adversary_from_config(config, ring, /*seed=*/1, kRobots);
    const auto* oblivious =
        dynamic_cast<const ObliviousAdversary*>(adversary.get());
    const std::type_index resolved =
        oblivious != nullptr ? std::type_index(typeid(*oblivious->schedule()))
                             : std::type_index(typeid(*adversary));
    EXPECT_EQ(resolved, expected) << adversary_kind_info(config.kind).name;
    configs.push_back(config);
  }
  return configs;
}

TEST(BatchEngineModelMatrixTest, RegistryKernelsAcrossModelsAndAdversaries) {
  const Ring ring(kNodes);
  for (const std::string& algorithm : algorithm_names()) {
    for (const ModelCase& mc : model_cases()) {
      for (const AdversaryConfig& config : registry_adversary_matrix()) {
        run_differential(
            algorithm + " vs " + adversary_display_name(config) + " under " +
                mc.name,
            [&](std::uint32_t b) {
              const std::uint64_t seed = b + 1;
              BatchReplica replica;
              replica.algorithm = make_algorithm(algorithm, seed);
              replica.placements = random_placements(ring, kRobots, seed);
              replica.horizon = horizon_of(b);
              wire_standard_replica(
                  replica, mc.model,
                  adversary_from_config(config, ring, seed, kRobots),
                  mc.activation_p, seed);
              return replica;
            },
            [&](std::uint32_t b) {
              const std::uint64_t seed = b + 1;
              return Engine(ring, make_algorithm(algorithm, seed),
                            adversary_from_config(config, ring, seed, kRobots),
                            standard_activation(mc.model, mc.activation_p,
                                                seed),
                            random_placements(ring, kRobots, seed));
            },
            mc.model);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The activation fill's edge cases through run_all() at 1 and 3 threads:
// robot counts 1-3, where a Bernoulli lane often draws no robot
// and takes the forced-nonempty next_below(k) fallback; p in {0, 0.5, 1};
// and one 77-lane batch mixing Bernoulli lanes with round-robin and full
// lanes, so 8-lane groups of Bernoulli lanes break in the middle of a
// slice.

/// Lane roles of the mixed batch: mostly Bernoulli, with a round-robin or
/// full lane inside some 8-lane groups.
Activation mixed_activation(ExecutionModel model, std::uint32_t replica,
                            double p, std::uint64_t seed) {
  switch (replica) {
    case 11:
    case 30:
    case 70:
      return Activation::round_robin(model);
    case 19:
    case 66:
      return Activation::full(model);
    default:
      return Activation::bernoulli(model, p, seed);
  }
}

TEST(BatchEngineActivationFillTest, EdgeCasesMatchSoloEngines) {
  constexpr std::uint32_t kLanes = 77;
  const Ring ring(10);
  for (const ExecutionModel model :
       {ExecutionModel::kSsync, ExecutionModel::kAsync}) {
    for (const std::uint32_t robots : {1u, 2u, 3u}) {
      for (const double p : {0.0, 0.5, 1.0}) {
        for (const bool full_edges : {true, false}) {
          SCOPED_TRACE(std::string(to_string(model)) + " k=" +
                       std::to_string(robots) + " p=" + std::to_string(p) +
                       (full_edges ? " static" : " bernoulli edges"));
          const auto adversary = [&](std::uint64_t seed) {
            if (full_edges) {
              return make_oblivious(std::make_shared<StaticSchedule>(ring));
            }
            return make_oblivious(
                std::make_shared<BernoulliSchedule>(ring, 0.6, seed));
          };
          const auto activation_seed = [](std::uint32_t b) {
            return derive_seed(b + 1, 0xf1);
          };
          std::vector<std::unique_ptr<Engine>> solo;
          for (std::uint32_t b = 0; b < kLanes; ++b) {
            const std::uint64_t seed = b + 1;
            solo.push_back(std::make_unique<Engine>(
                ring, make_algorithm("pef3+", seed), adversary(seed),
                mixed_activation(model, b, p, activation_seed(b)),
                random_placements(ring, robots, seed)));
            solo.back()->run(horizon_of(b));
          }
          for (const std::uint32_t threads : {1u, 3u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            std::vector<BatchReplica> replicas(kLanes);
            for (std::uint32_t b = 0; b < kLanes; ++b) {
              const std::uint64_t seed = b + 1;
              BatchReplica& replica = replicas[b];
              replica.algorithm = make_algorithm("pef3+", seed);
              replica.adversary = adversary(seed);
              replica.activation =
                  mixed_activation(model, b, p, activation_seed(b));
              replica.placements = random_placements(ring, robots, seed);
              replica.horizon = horizon_of(b);
            }
            BatchEngineOptions options;
            options.threads = threads;
            BatchEngine batch(ring, model, std::move(replicas), options);
            batch.run_all();
            for (std::uint32_t b = 0; b < kLanes; ++b) {
              SCOPED_TRACE("replica " + std::to_string(b));
              expect_same_stats(batch.stats(b), solo[b]->stats());
              expect_same_coverage(batch.coverage_report(b),
                                   solo[b]->coverage_report());
              for (RobotId r = 0; r < robots; ++r) {
                EXPECT_EQ(batch.robot_node(b, r), solo[b]->robot_node(r));
              }
            }
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Listed rows: a t-interval lane starts from a full row and, at each
// interval, sets its previous absent edge again and clears the one
// absent_edges names, keeping the list in its endpoint slots.

/// A t-interval schedule that counts its edges_into_words calls.  It lists
/// its absent edges, so a batch lane holding it patches its row and must
/// never fill it.
class CountingTInterval final : public EdgeSchedule {
 public:
  CountingTInterval(const Ring& ring, std::uint64_t seed,
                    std::shared_ptr<std::uint64_t> fills)
      : inner_(ring, 3, seed), fills_(std::move(fills)) {}

  [[nodiscard]] const Ring& ring() const override { return inner_.ring(); }
  void edges_into_words(Time t, std::uint64_t* words) const override {
    ++*fills_;
    inner_.edges_into_words(t, words);
  }
  [[nodiscard]] std::optional<std::uint32_t> absent_edges(
      Time t, std::span<EdgeId> out) const override {
    return inner_.absent_edges(t, out);
  }
  [[nodiscard]] Time next_change(Time t) const override {
    return inner_.next_change(t);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }

 private:
  TIntervalConnectedSchedule inner_;
  std::shared_ptr<std::uint64_t> fills_;
};

/// The activation of the listed-row tests: FSYNC's, or Bernoulli.
Activation listed_activation(ExecutionModel model, std::uint64_t seed) {
  if (model == ExecutionModel::kFsync) return Activation{};
  return Activation::bernoulli(model, 0.6, derive_seed(seed, 0x15));
}

constexpr ExecutionModel kModels[] = {
    ExecutionModel::kFsync, ExecutionModel::kSsync, ExecutionModel::kAsync};

TEST(BatchEngineListedRowsTest, ListedLanesNeverFillTheirRows) {
  const Ring ring(kNodes);
  for (const ExecutionModel model : kModels) {
    // kBatch lanes: an SSYNC or ASYNC batch this narrow never splits, yet
    // its listed lanes keep their lists in the endpoint slots.
    for (const std::uint32_t lanes : {kBatch, kWideBatch}) {
      const auto fills = std::make_shared<std::uint64_t>(0);
      run_differential(
          std::string("pef3+ vs counting t-interval under ") +
              to_string(model) + " at " + std::to_string(lanes) + " lanes",
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            BatchReplica replica;
            replica.algorithm = make_algorithm("pef3+", seed);
            replica.adversary = make_oblivious(
                std::make_shared<CountingTInterval>(ring, seed, fills));
            replica.activation = listed_activation(model, seed);
            replica.placements = anywhere(ring, seed);
            replica.horizon = horizon_of(b);
            return replica;
          },
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            return Engine(ring, make_algorithm("pef3+", seed),
                          make_oblivious(t_interval(ring, seed)),
                          listed_activation(model, seed),
                          anywhere(ring, seed));
          },
          model, lanes);
      EXPECT_EQ(*fills, 0u) << to_string(model) << " " << lanes;
    }
  }
}

TEST(BatchEngineListedRowsTest, ThreeWordRowsMatchSoloEngines) {
  // 130 edges: three words per row, the last holding two edges, so the
  // listed edge lands in every word.
  constexpr std::uint32_t kWideNodes = 130;
  const Ring ring(kWideNodes);
  for (const ExecutionModel model : kModels) {
    for (const std::string& algorithm : algorithm_names()) {
      run_differential(
          algorithm + " vs t-interval on 130 nodes under " + to_string(model),
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            BatchReplica replica;
            replica.algorithm = make_algorithm(algorithm, seed);
            replica.adversary = make_oblivious(t_interval(ring, seed));
            replica.activation = listed_activation(model, seed);
            replica.placements = random_placements(ring, kRobots, seed);
            replica.horizon = horizon_of(b);
            return replica;
          },
          [&](std::uint32_t b) {
            const std::uint64_t seed = b + 1;
            return Engine(ring, make_algorithm(algorithm, seed),
                          make_oblivious(t_interval(ring, seed)),
                          listed_activation(model, seed),
                          random_placements(ring, kRobots, seed));
          },
          model, kWideBatch, kWideNodes);
    }
  }
}

// ---------------------------------------------------------------------------
// A wider ring with more robots: stats and coverage still match solo runs
// (the batch-throughput bench relies on exactly this equality), and ragged
// horizons retire lanes at the right rounds.

TEST(BatchEngineTest, UntracedStatsMatchSoloEngines) {
  const Ring ring(64);
  constexpr std::uint32_t kReplicas = 7;
  constexpr std::uint32_t kBots = 8;

  std::vector<BatchReplica> replicas;
  for (std::uint32_t b = 0; b < kReplicas; ++b) {
    BatchReplica replica;
    replica.algorithm = make_algorithm("pef3+", b + 1);
    replica.adversary = make_oblivious(
        std::make_shared<BernoulliSchedule>(ring, 0.7, b + 1));
    replica.placements = random_placements(ring, kBots, b + 1);
    replica.horizon = 500 + 100 * b;
    replicas.push_back(std::move(replica));
  }
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas));
  batch.run_all();

  for (std::uint32_t b = 0; b < kReplicas; ++b) {
    SCOPED_TRACE("replica " + std::to_string(b));
    Engine solo(ring, make_algorithm("pef3+", b + 1),
                make_oblivious(
                    std::make_shared<BernoulliSchedule>(ring, 0.7, b + 1)),
                random_placements(ring, kBots, b + 1));
    solo.run(500 + 100 * b);
    expect_same_stats(batch.stats(b), solo.stats());
    expect_same_coverage(batch.coverage_report(b), solo.coverage_report());
  }
}

TEST(BatchEngineTest, RaggedHorizonsRetireLanesOnSchedule) {
  const Ring ring(12);
  std::vector<BatchReplica> replicas;
  const std::vector<Time> horizons = {5, 40, 40, 0, 100};
  for (std::size_t b = 0; b < horizons.size(); ++b) {
    BatchReplica replica;
    replica.algorithm = make_algorithm("bounce", b + 1);
    replica.adversary =
        make_oblivious(std::make_shared<StaticSchedule>(ring));
    replica.placements = random_placements(ring, 3, b + 1);
    replica.horizon = horizons[b];
    replicas.push_back(std::move(replica));
  }
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas));
  // The zero-horizon replica retires before the first step.
  EXPECT_EQ(batch.active_replicas(), 4u);
  for (Time t = 0; t < 5; ++t) batch.step();
  EXPECT_EQ(batch.active_replicas(), 3u);
  for (Time t = 5; t < 40; ++t) batch.step();
  EXPECT_EQ(batch.active_replicas(), 1u);
  batch.run_all();
  EXPECT_EQ(batch.active_replicas(), 0u);
  for (std::size_t b = 0; b < horizons.size(); ++b) {
    EXPECT_EQ(batch.stats(static_cast<std::uint32_t>(b)).rounds, horizons[b]);
  }
}

TEST(BatchEngineTest, SingleReplicaBatchIsAnEngine) {
  const Ring ring(16);
  BatchReplica replica;
  replica.algorithm = make_algorithm("pef3+", 3);
  replica.adversary =
      make_oblivious(std::make_shared<BernoulliSchedule>(ring, 0.5, 3));
  replica.placements = spread_placements(ring, 4);
  replica.horizon = 300;
  std::vector<BatchReplica> replicas;
  replicas.push_back(std::move(replica));
  BatchEngine batch(ring, ExecutionModel::kFsync, std::move(replicas));
  batch.run_all();

  Engine solo(ring, make_algorithm("pef3+", 3),
              make_oblivious(std::make_shared<BernoulliSchedule>(ring, 0.5, 3)),
              spread_placements(ring, 4));
  solo.run(300);
  expect_same_stats(batch.stats(0), solo.stats());
  expect_same_coverage(batch.coverage_report(0), solo.coverage_report());
}

}  // namespace
}  // namespace pef

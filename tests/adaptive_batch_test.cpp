// Adaptive batch sizing + wide-batch determinism tests.
//
// The contract of the adaptive stack: HOW a scenario set is executed — solo
// Engines, one BatchEngine, batch width, tile shape, intra-cell worker
// threads, ISA tier — may never change WHAT it computes.  These tests pin
//   * plan_batch's routing (break-even fallback, preferred width, caps);
//   * bit-identical stats/coverage for wide (B=256, multi-tile), crowded
//     (k = n/2, 77 lanes) and threaded batches against solo Engines, on
//     all three models, with schedule-backed (static, t-interval,
//     eventual-missing, a chain under t-interval, Bernoulli) and
//     adaptive (greedy-blocker) adversaries, and every
//     registry kernel on the crowded ring;
//   * byte-identical sweep JSON across max_batch in {0, 1, 16, 256} and
//     engine_threads in {1, 4};
//   * the pef_run CLI: --batch 1/2 route to solo Engines (and say so in the
//     footer), --batch 16/auto to the BatchEngine, with per-seed table rows
//     identical across the routes, --threads, and PEF_BATCH_ISA tiers; and
//     the removed --engine flag exits 2.
//
// (batch_engine_test.cpp is the exhaustive round-by-round differential at
// B=10; this file covers the regimes that test cannot reach: multi-tile
// widths, worker threads, the planner, and the CLI routing.)
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "core/experiment.hpp"
#include "core/spec.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/batch_engine.hpp"
#include "engine/engine.hpp"
#include "engine/placements.hpp"
#include "engine/sweep_runner.hpp"
#include "isa_tier_check.hpp"

namespace pef {
namespace {

// First, so a misspelled PEF_BATCH_ISA registration fails before the
// kernels re-test the native tier.
TEST(IsaTierTest, ActiveTierIsTheOnePefBatchIsaNames) {
  expect_active_isa_is_the_named_tier();
}

constexpr double kActivationP = 0.5;

// ---------------------------------------------------------------------------
// plan_batch routing

TEST(AdaptiveBatch, SingleSeedIsNeverBatched) {
  for (const ExecutionModel model :
       {ExecutionModel::kFsync, ExecutionModel::kSsync,
        ExecutionModel::kAsync}) {
    const BatchPlan plan = plan_batch(model, 1024, 16, 1, 0);
    EXPECT_EQ(plan.width, 1u);
    EXPECT_FALSE(plan.use_batch());
  }
}

TEST(AdaptiveBatch, BelowBreakEvenRoutesToSolo) {
  for (const ExecutionModel model :
       {ExecutionModel::kFsync, ExecutionModel::kSsync,
        ExecutionModel::kAsync}) {
    const std::uint32_t knee = batch_break_even(model, 1024, 16);
    ASSERT_GE(knee, 2u);
    // Seeds just under the knee: solo.  At the knee: batch.
    EXPECT_FALSE(plan_batch(model, 1024, 16, knee - 1, 0).use_batch());
    const BatchPlan at = plan_batch(model, 1024, 16, knee, 0);
    EXPECT_TRUE(at.use_batch());
    EXPECT_EQ(at.width, knee);
  }
}

TEST(AdaptiveBatch, ExplicitCapBelowBreakEvenIsAHardSoloRoute) {
  // max_batch == 1 is an explicit "no batching" request; a cap below the
  // knee is a ceiling that lands in solo territory.
  EXPECT_FALSE(plan_batch(ExecutionModel::kFsync, 1024, 16, 64, 1).use_batch());
  const std::uint32_t knee = batch_break_even(ExecutionModel::kFsync, 1024, 16);
  if (knee > 2) {
    EXPECT_FALSE(
        plan_batch(ExecutionModel::kFsync, 1024, 16, 64, knee - 1).use_batch());
  }
}

TEST(AdaptiveBatch, AdaptiveWidthIsPreferredWidthClampedToSeeds) {
  const std::uint32_t preferred =
      preferred_batch_width(ExecutionModel::kFsync, 1024, 16);
  EXPECT_GE(preferred, 64u);
  EXPECT_EQ(plan_batch(ExecutionModel::kFsync, 1024, 16, 10'000, 0).width,
            preferred);
  // Fewer seeds than the preferred width: the plan never overshoots.
  EXPECT_EQ(plan_batch(ExecutionModel::kFsync, 1024, 16, 48, 0).width, 48u);
  // An explicit cap wins over the preferred width.
  EXPECT_EQ(plan_batch(ExecutionModel::kFsync, 1024, 16, 10'000, 16).width,
            16u);
}

TEST(AdaptiveBatch, PreferredWidthNarrowsForHugeRings) {
  // The lane-major visit rows grow with n; the preferred width must shrink
  // rather than blow the cache budget, but never below one 64-lane block.
  const std::uint32_t small =
      preferred_batch_width(ExecutionModel::kFsync, 1024, 16);
  const std::uint32_t huge =
      preferred_batch_width(ExecutionModel::kFsync, 1 << 20, 16);
  EXPECT_LE(huge, small);
  EXPECT_GE(huge, 64u);
}

// ---------------------------------------------------------------------------
// Wide + threaded batches vs solo Engines (stats/coverage identity)
//
// Through run_all(), so the lanes run the tiled, threaded path.  Every
// EngineStats field and the whole CoverageReport are compared.

struct WideShape {
  std::uint32_t nodes;
  std::uint32_t robots;
  std::uint32_t batch;
};

struct WideScenario {
  const char* name;
  AdversaryConfig adversary;
  Topology topology = Topology::kRing;
};

/// Static (every edge row full: FSYNC's AllFull body, SSYNC's split pass
/// with no robot touched), t-interval and eventual-missing (at most one
/// absent edge per row) and a chain under t-interval (at most two: the
/// split passes, with crowded words at k = n/2), Bernoulli (dense rows:
/// the generic FSYNC body and the per-bit SSYNC and ASYNC passes; drawn
/// beside the robots in multi-word rows at n = 2048, the whole row in the
/// crowded batch) and the adaptive greedy-blocker (rows computed from the
/// planes).
std::vector<WideScenario> wide_scenarios(bool adaptive) {
  std::vector<WideScenario> scenarios = {
      {"static", adversary_config(AdversaryKind::kStatic)},
      {"t-interval",
       adversary_config(AdversaryKind::kTInterval, {{"interval", 4}})},
      {"eventual-missing", adversary_config(AdversaryKind::kEventualMissing)},
      {"chain+t-interval",
       adversary_config(AdversaryKind::kTInterval, {{"interval", 4}}),
       Topology::kChain},
      {"bernoulli", adversary_config(AdversaryKind::kBernoulli, {{"p", 0.8}})},
  };
  if (adaptive) {
    scenarios.push_back(
        {"greedy-blocker",
         adversary_config(AdversaryKind::kGreedyBlocker, {{"max_absence", 4}})});
  }
  return scenarios;
}

/// Ragged horizons so replicas retire mid-epoch (the temporal tiling must
/// handle lanes leaving inside an epoch span, and the live lane count
/// stops being a multiple of 8).
Time wide_horizon(std::uint32_t replica) { return 150 + 23 * (replica % 5); }

std::unique_ptr<Engine> solo_run(const Ring& ring, const std::string& algorithm,
                                 ExecutionModel model,
                                 const WideScenario& scenario,
                                 std::uint32_t robots, std::uint32_t replica) {
  const std::uint64_t seed = replica + 1;
  auto engine = std::make_unique<Engine>(
      ring, make_algorithm(algorithm, seed),
      adversary_from_config(scenario.adversary, ring, seed, robots,
                            scenario.topology),
      standard_activation(model, kActivationP, seed),
      random_placements(ring, robots, seed));
  engine->run(wide_horizon(replica));
  return engine;
}

void expect_stats_equal(const EngineStats& batch, const EngineStats& solo) {
  ASSERT_EQ(batch.rounds, solo.rounds);
  ASSERT_EQ(batch.total_moves, solo.total_moves);
  ASSERT_EQ(batch.tower_rounds, solo.tower_rounds);
  ASSERT_EQ(batch.tower_formations, solo.tower_formations);
  ASSERT_EQ(batch.visited_node_count, solo.visited_node_count);
  ASSERT_EQ(batch.cover_time, solo.cover_time);
}

void expect_coverage_equal(const CoverageReport& batch,
                           const CoverageReport& solo) {
  ASSERT_EQ(batch.visit_counts, solo.visit_counts);
  ASSERT_EQ(batch.cover_time, solo.cover_time);
  ASSERT_EQ(batch.visited_node_count, solo.visited_node_count);
  ASSERT_EQ(batch.max_revisit_gap, solo.max_revisit_gap);
  ASSERT_EQ(batch.max_closed_gap, solo.max_closed_gap);
  ASSERT_EQ(batch.nodes_visited_in_suffix, solo.nodes_visited_in_suffix);
  ASSERT_EQ(batch.suffix_window, solo.suffix_window);
  ASSERT_EQ(batch.horizon, solo.horizon);
}

/// One batch of `shape.batch` seeds per thread count, each
/// compared replica by replica with its solo Engine.
void expect_batch_matches_solo(const WideShape& shape,
                               const std::string& algorithm,
                               ExecutionModel model,
                               const WideScenario& scenario,
                               const std::vector<std::uint32_t>& threads) {
  SCOPED_TRACE(algorithm + " " + to_string(model) + "/" + scenario.name);
  const Ring ring(shape.nodes);
  std::vector<std::unique_ptr<Engine>> solo(shape.batch);
  for (std::uint32_t b = 0; b < shape.batch; ++b) {
    solo[b] = solo_run(ring, algorithm, model, scenario, shape.robots, b);
  }
  for (const std::uint32_t thread_count : threads) {
    SCOPED_TRACE("threads=" + std::to_string(thread_count));
    std::vector<BatchReplica> replicas(shape.batch);
    for (std::uint32_t b = 0; b < shape.batch; ++b) {
      const std::uint64_t seed = b + 1;
      BatchReplica& replica = replicas[b];
      replica.algorithm = make_algorithm(algorithm, seed);
      replica.placements = random_placements(ring, shape.robots, seed);
      replica.horizon = wide_horizon(b);
      wire_standard_replica(replica, model,
                            adversary_from_config(scenario.adversary, ring,
                                                  seed, shape.robots,
                                                  scenario.topology),
                            kActivationP, seed);
    }
    BatchEngineOptions options;
    options.threads = thread_count;
    BatchEngine batch(ring, model, std::move(replicas), options);
    batch.run_all();
    for (std::uint32_t b = 0; b < shape.batch; ++b) {
      SCOPED_TRACE("replica " + std::to_string(b));
      expect_stats_equal(batch.stats(b), solo[b]->stats());
      expect_coverage_equal(batch.coverage_report(b),
                            solo[b]->coverage_report());
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

constexpr ExecutionModel kAllModels[] = {
    ExecutionModel::kFsync, ExecutionModel::kSsync, ExecutionModel::kAsync};

TEST(WideBatch, B256ThreadedMatchesSoloOnEveryModel) {
  // n chosen so a 256-replica batch spans MULTIPLE cache tiles (the tile
  // budget splits the lane axis) and threads=3/4 split the 64-lane blocks
  // across workers, evenly or not, on any machine (a small core count
  // just oversubscribes; determinism must not care).
  const WideShape shape{2048, 8, 256};
  for (const ExecutionModel model : kAllModels) {
    for (const WideScenario& scenario : wide_scenarios(true)) {
      expect_batch_matches_solo(shape, "pef3+", model, scenario, {1, 3, 4});
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WideBatch, CrowdedRingMatchesSoloForEveryKernel) {
  // k = n / 2 makes towers and robots sharing visit cells common, and 77
  // lanes leave a 13-lane second block: a ragged 8-lane tail in every
  // per-8-lane body, before retirements make the live count ragged too.
  // Every registry kernel runs, so on static rings each branchless kernel
  // takes the masked SSYNC body, on few-absent-edge rows the split passes
  // (with most robots touched on a chain: crowded FSYNC words), and
  // oscillating and random-walk take the per-bit pass.
  const WideShape shape{24, 12, 77};
  for (const std::string& algorithm : algorithm_names()) {
    for (const ExecutionModel model : kAllModels) {
      for (const WideScenario& scenario : wide_scenarios(false)) {
        expect_batch_matches_solo(shape, algorithm, model, scenario, {1, 3});
        if (HasFatalFailure()) return;
      }
    }
  }
}

TEST(WideBatch, RobotCountsTheKernelsBranchOnMatchSolo) {
  // The batch kernels branch on k: the pairwise multiplicity body runs up
  // to k = 16 and the counting body from 17; k = 48 takes the stamped
  // multiplicity path below 64 lanes and k = 64 at 64 lanes or more; and
  // at k = 65 a lane draws more activation bits than one 64-bit word
  // holds.  Bernoulli activation (SSYNC, ASYNC) and Bernoulli edges (drawn
  // beside the robots: 2k < n) draw per robot at every k.
  const std::vector<WideScenario> scenarios = {
      {"static", adversary_config(AdversaryKind::kStatic)},
      {"t-interval",
       adversary_config(AdversaryKind::kTInterval, {{"interval", 4}})},
      {"bernoulli", adversary_config(AdversaryKind::kBernoulli, {{"p", 0.8}})},
  };
  for (const std::uint32_t robots : {16u, 17u, 48u, 64u, 65u}) {
    for (const std::uint32_t lanes : {10u, 77u}) {
      SCOPED_TRACE("k=" + std::to_string(robots) +
                   " lanes=" + std::to_string(lanes));
      for (const ExecutionModel model : kAllModels) {
        for (const WideScenario& scenario : scenarios) {
          expect_batch_matches_solo({160, robots, lanes}, "pef3+", model,
                                    scenario, {1});
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Sweep JSON byte-identity across batch widths and engine threads

TEST(AdaptiveBatch, SweepJsonIdenticalAcrossWidthsAndThreads) {
  SweepSpec mixed;
  mixed.algorithms = {"pef3+", "bounce"};
  mixed.adversaries = {
      adversary_config(AdversaryKind::kStatic),
      adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}})};
  mixed.models = {ExecutionModel::kFsync, ExecutionModel::kSsync};
  mixed.ring_sizes = {32};
  mixed.robot_counts = {3};
  mixed.seeds = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                 11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  mixed.horizon = 300;

  // A horizon past 2^32 does not fit a batch lane's visit stamps: every
  // width must route the seed group to solo Engines (fast-forward keeps
  // each cell to milliseconds) instead of aborting.
  SweepSpec long_horizon;
  long_horizon.algorithms = {"pef3+"};
  long_horizon.adversaries = {adversary_config(AdversaryKind::kStatic)};
  long_horizon.ring_sizes = {16};
  long_horizon.robot_counts = {3};
  long_horizon.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  long_horizon.horizon = 5'000'000'000ULL;
  long_horizon.fast_forward = true;

  for (SweepSpec spec : {mixed, long_horizon}) {
    SCOPED_TRACE("horizon " + std::to_string(spec.horizon));
    std::string reference;
    for (const std::uint32_t max_batch : {0u, 1u, 16u, 256u}) {
      for (const std::uint32_t engine_threads : {1u, 4u}) {
        spec.max_batch = max_batch;
        const SweepRunner runner(1, engine_threads);
        const std::string json = runner.run(spec).to_json();
        if (reference.empty()) {
          reference = json;
          continue;
        }
        EXPECT_EQ(json, reference)
            << "sweep JSON diverged at max_batch=" << max_batch
            << " engine_threads=" << engine_threads;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// pef_run CLI routing (footer + per-seed rows + ISA tiers)

std::string run_cli(const std::string& env_and_args) {
  const std::string cmd = env_and_args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  if (pipe == nullptr) return {};
  std::string out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    out.append(buffer, n);
  }
  pclose(pipe);
  return out;
}

std::string pef_run_cmd(const std::string& args) {
  return std::string(PEF_BIN_DIR) + "/pef_run " + args;
}

/// Per-seed table body rows with runs of spaces collapsed (column widths
/// depend on the widest value in the whole table, so a 2-row and a 16-row
/// table may pad the shared rows differently; the VALUES must match).
std::vector<std::string> table_rows(const std::string& out) {
  std::vector<std::string> rows;
  std::istringstream in(out);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] != '|') continue;
    if (line.find("seed") != std::string::npos) continue;  // header
    std::string squeezed;
    for (const char c : line) {
      if (c == ' ' && !squeezed.empty() && squeezed.back() == ' ') continue;
      squeezed.push_back(c);
    }
    rows.push_back(squeezed);
  }
  return rows;
}

constexpr const char* kCliScenario =
    "--nodes 48 --robots 4 --algorithm pef3+ --adversary static "
    "--model fsync --horizon 400";

TEST(PefRunCli, BatchOneRoutesToSoloEngine) {
  const std::string out =
      run_cli(pef_run_cmd(std::string(kCliScenario) + " --batch 1"));
  EXPECT_NE(out.find("engine=solo"), std::string::npos) << out;
  EXPECT_EQ(out.find("engine=batch"), std::string::npos) << out;
}

TEST(PefRunCli, BelowBreakEvenRoutesToSoloAboveToBatch) {
  const std::string solo =
      run_cli(pef_run_cmd(std::string(kCliScenario) + " --batch 2"));
  EXPECT_NE(solo.find("engine=solo"), std::string::npos) << solo;
  const std::string batch =
      run_cli(pef_run_cmd(std::string(kCliScenario) + " --batch 16"));
  EXPECT_NE(batch.find("engine=batch"), std::string::npos) << batch;
  const std::string adaptive =
      run_cli(pef_run_cmd(std::string(kCliScenario) + " --batch auto"));
  EXPECT_NE(adaptive.find("engine=batch"), std::string::npos) << adaptive;
}

TEST(PefRunCli, SoloAndBatchRowsAreByteIdentical) {
  // Seeds 1..2 via the solo route vs seeds 1..16 via the batch route: the
  // overlapping per-seed rows must carry identical values.
  const std::vector<std::string> solo = table_rows(
      run_cli(pef_run_cmd(std::string(kCliScenario) + " --batch 2")));
  const std::vector<std::string> batch = table_rows(
      run_cli(pef_run_cmd(std::string(kCliScenario) + " --batch 16")));
  ASSERT_EQ(solo.size(), 2u);
  ASSERT_EQ(batch.size(), 16u);
  EXPECT_EQ(solo[0], batch[0]);
  EXPECT_EQ(solo[1], batch[1]);
}

TEST(PefRunCli, EngineFlagIsGone) {
  // Every run executes on the unified Engine; --engine is an unknown flag.
  for (const char* engine : {"fast", "reference"}) {
    const int status = std::system(
        (pef_run_cmd(std::string(kCliScenario) + " --engine " + engine) +
         " > /dev/null 2>&1")
            .c_str());
    ASSERT_TRUE(WIFEXITED(status)) << engine;
    EXPECT_EQ(WEXITSTATUS(status), 2) << engine;
  }
}

TEST(PefRunCli, ThreadsAndIsaTiersKeepRowsIdentical) {
  const std::vector<std::string> reference = table_rows(
      run_cli(pef_run_cmd(std::string(kCliScenario) + " --batch 16")));
  ASSERT_EQ(reference.size(), 16u);
  EXPECT_EQ(table_rows(run_cli(pef_run_cmd(std::string(kCliScenario) +
                                           " --batch 16 --threads 4"))),
            reference);
  // PEF_BATCH_ISA clamps the dispatch tier downward; every tier computes
  // the same rows.
  for (const char* tier : {"portable", "avx2", "avx512"}) {
    EXPECT_EQ(table_rows(run_cli(
                  std::string("PEF_BATCH_ISA=") + tier + " " +
                  pef_run_cmd(std::string(kCliScenario) + " --batch 16"))),
              reference)
        << "ISA tier " << tier;
  }
}

}  // namespace
}  // namespace pef

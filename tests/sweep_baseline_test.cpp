// Sweep regression baseline: a small, fully deterministic sweep grid whose
// JSON is checked into tests/baselines/.  Any change to engine semantics,
// seeding, grid enumeration or JSON shape shows up as a diff here — the
// cross-PR tripwire for the whole (algorithm × adversary × model × n × k ×
// seed) pipeline.  battery_small.json does the same for the scenario
// pipeline: run_battery, run_experiment and run_scenario, with every
// RunResult field.
//
// To regenerate after an *intentional* change:
//   PEF_UPDATE_BASELINES=1 build/sweep_baseline_test
// then review and commit the diff of the tests/baselines/*.json files.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algorithms/registry.hpp"
#include "common/json.hpp"
#include "core/experiment.hpp"
#include "core/spec.hpp"
#include "engine/sweep_runner.hpp"

namespace pef {
namespace {

/// The pinned grid.  Keep it small (it runs in milliseconds) but spanning:
/// both dispatch-relevant algorithm families (memoryless + stateful), an
/// oblivious and a seeded stochastic adversary, and all three execution
/// models.  The same grid is checked in as a spec file at
/// examples/specs/sweep_small.json (sweep_shard_test pins the two equal and
/// shards it through pef_sweep's machinery).
SweepSpec baseline_grid() {
  SweepSpec spec;
  spec.algorithms = {"pef3+", "bounce"};
  spec.adversaries = {adversary_config(AdversaryKind::kStatic),
                      adversary_config(AdversaryKind::kBernoulli,
                                       {{"p", 0.5}})};
  spec.models = {ExecutionModel::kFsync, ExecutionModel::kSsync,
                 ExecutionModel::kAsync};
  spec.ring_sizes = {6, 10};
  spec.robot_counts = {3};
  spec.seeds = {1, 2};
  spec.horizon = 400;
  return spec;
}

/// The same grid on the chain topology (the n-node chain cut from the
/// n-ring) — checked in as examples/specs/sweep_chain_small.json.  Pins the
/// whole chain pipeline: ChainSchedule edge masking, the chain adversary
/// wrapper, and the oblivious batch fast path surviving the rewrap.
SweepSpec chain_grid() {
  SweepSpec spec = baseline_grid();
  spec.topology = Topology::kChain;
  return spec;
}

/// examples/specs/sweep_longhorizon.json: the one checked-in spec with
/// periodic cells.  All 32 of its cells fast-forward through a cycle, so
/// its golden file pins the periodic edge fill and the cycle layer's
/// rounds_simulated / rounds_covered together.
SweepSpec longhorizon_grid() {
  std::ifstream in(std::string(PEF_SPEC_DIR) + "/sweep_longhorizon.json",
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing examples/specs/sweep_longhorizon.json";
  std::ostringstream text;
  text << in.rdbuf();
  std::string error;
  const auto spec = parse_sweep_spec(text.str(), &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec.value_or(SweepSpec{});
}

std::string baseline_path(const std::string& name) {
  return std::string(PEF_BASELINE_DIR) + "/" + name;
}

/// Diff `json` against tests/baselines/`name`, or rewrite the file when
/// PEF_UPDATE_BASELINES is set.
void expect_matches_golden_text(const std::string& json,
                                const std::string& name) {
  const std::string path = baseline_path(name);

  if (std::getenv("PEF_UPDATE_BASELINES") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << json << "\n";
    GTEST_SKIP() << "baseline regenerated at " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with PEF_UPDATE_BASELINES=1 " << std::flush;
  std::ostringstream golden;
  golden << in.rdbuf();
  std::string expected = golden.str();
  // Tolerate a single trailing newline in the checked-in file.
  if (!expected.empty() && expected.back() == '\n') expected.pop_back();

  EXPECT_EQ(json, expected)
      << "output diverged from tests/baselines/" << name << "; if "
         "the change is intentional, regenerate with PEF_UPDATE_BASELINES=1 "
         "and commit the diff";
}

/// Runs on 2 workers, so the golden bytes also pin the pool's output.
void expect_matches_golden(const SweepSpec& spec, const std::string& name) {
  const SweepResult result = SweepRunner(2).run(spec);
  // Every seed group of an unsharded run holds one cell per seed.
  const auto groups =
      static_cast<std::uint32_t>(result.cells.size() / spec.seeds.size());
  std::uint32_t hardware = std::thread::hardware_concurrency();
  if (hardware == 0) hardware = 1;
  EXPECT_EQ(result.threads, std::min({2u, hardware, groups}));
  expect_matches_golden_text(result.to_json(), name);
}

/// The scenario grid of battery_small.json: {pef3+, bounce} × (the standard
/// battery + greedy-blocker) × every model × {ring, chain} × n ∈ {6, 10},
/// k = 3, horizon 400.  battery_text runs each spec at seeds 1-3.
std::vector<ScenarioSpec> battery_scenarios() {
  std::vector<AdversaryConfig> adversaries = standard_battery_configs();
  adversaries.push_back(adversary_config(AdversaryKind::kGreedyBlocker));
  std::vector<ScenarioSpec> specs;
  for (const char* algorithm : {"pef3+", "bounce"}) {
    for (const AdversaryConfig& adversary : adversaries) {
      for (const ExecutionModel model :
           {ExecutionModel::kFsync, ExecutionModel::kSsync,
            ExecutionModel::kAsync}) {
        for (const Topology topology : {Topology::kRing, Topology::kChain}) {
          for (const std::uint32_t n : {6u, 10u}) {
            ScenarioSpec spec;
            spec.nodes = n;
            spec.robots = 3;
            spec.topology = topology;
            spec.algorithm = algorithm;
            spec.adversary = adversary;
            spec.model = model;
            spec.horizon = 400;
            specs.push_back(spec);
          }
        }
      }
    }
  }
  return specs;
}

ScenarioSpec eventual_missing_scenario() {
  std::string error;
  const auto document = parse_json_input(
      std::string(PEF_SPEC_DIR) + "/scenario_eventual_missing.json", &error);
  EXPECT_TRUE(document.has_value()) << error;
  if (!document) return ScenarioSpec{};
  const auto spec = scenario_spec_from_json(*document, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return spec.value_or(ScenarioSpec{});
}

/// One golden line: {"run": run_result_to_json(result), "analysis": the
/// RunResult fields run_result_to_json omits}.  The "run" bytes are what
/// pef_serve returns for the scenario.
std::string battery_line(const RunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.raw_field("run", run_result_to_json(result));
  json.begin_object("analysis");
  json.begin_array("visit_counts");
  for (const std::uint64_t count : result.coverage.visit_counts) {
    json.element(count);
  }
  json.end_array();
  json.field("nodes_visited_in_suffix",
             result.coverage.nodes_visited_in_suffix);
  json.field("max_tower_duration", result.towers.max_tower_duration);
  json.field("lemma_3_3_holds", result.towers.lemma_3_3_holds);
  json.field("lemma_3_4_holds", result.towers.lemma_3_4_holds);
  json.begin_array("suspected_missing");
  for (const EdgeId edge : result.legality.suspected_missing) {
    json.element(static_cast<std::uint64_t>(edge));
  }
  json.end_array();
  json.field("max_closed_absence", result.legality.max_closed_absence);
  json.end_object();
  json.end_object();
  return json.str();
}

/// The spec as a hand-built ExperimentConfig, not through
/// to_experiment_config: every other field keeps its default.
ExperimentConfig default_config(const ScenarioSpec& spec) {
  ExperimentConfig config;
  config.nodes = spec.nodes;
  config.robots = spec.robots;
  config.topology = spec.topology;
  config.algorithm = make_algorithm(resolved_algorithm(spec), spec.seed);
  config.adversary = spec.adversary;
  config.horizon = spec.horizon;
  config.seed = spec.seed;
  config.model = spec.model;
  config.activation_p = spec.activation_p;
  return config;
}

/// The golden text through one entry point: `run(spec, first, seeds)`
/// returns the results of seeds first, first+1, ...: seeds 1-3 of each
/// grid spec, then the checked-in scenario's own seed.
std::string battery_text(
    const std::function<std::vector<RunResult>(
        const ScenarioSpec&, std::uint64_t first, std::uint32_t seeds)>& run) {
  std::string text;
  for (const ScenarioSpec& spec : battery_scenarios()) {
    for (const RunResult& result : run(spec, 1, 3)) {
      text += battery_line(result) + "\n";
    }
  }
  const ScenarioSpec scenario = eventual_missing_scenario();
  for (const RunResult& result : run(scenario, scenario.seed, 1)) {
    text += battery_line(result) + "\n";
  }
  text.pop_back();  // expect_matches_golden_text adds the final newline
  return text;
}

/// `run_one(spec)` for each seed of a battery_text call.
std::vector<RunResult> per_seed(
    const ScenarioSpec& spec, std::uint64_t first, std::uint32_t seeds,
    const std::function<RunResult(const ScenarioSpec&)>& run_one) {
  std::vector<RunResult> results;
  for (std::uint32_t s = 0; s < seeds; ++s) {
    ScenarioSpec seeded = spec;
    seeded.seed = first + s;
    results.push_back(run_one(seeded));
  }
  return results;
}

TEST(SweepBaselineTest, GridMatchesGoldenJson) {
  expect_matches_golden(baseline_grid(), "sweep_small.json");
}

TEST(SweepBaselineTest, ChainGridMatchesGoldenJson) {
  expect_matches_golden(chain_grid(), "sweep_chain_small.json");
}

TEST(SweepBaselineTest, LongHorizonGridMatchesGoldenJson) {
  expect_matches_golden(longhorizon_grid(), "sweep_longhorizon.json");
}

TEST(SweepBaselineTest, BatteryMatchesGoldenJsonThroughEveryEntryPoint) {
  const std::string battery = battery_text(
      [](const ScenarioSpec& spec, std::uint64_t first, std::uint32_t seeds) {
        return run_battery(spec, first, seeds);
      });
  const std::string experiments = battery_text(
      [](const ScenarioSpec& spec, std::uint64_t first, std::uint32_t seeds) {
        return per_seed(spec, first, seeds, [](const ScenarioSpec& seeded) {
          return run_experiment(default_config(seeded));
        });
      });
  const std::string scenarios = battery_text(
      [](const ScenarioSpec& spec, std::uint64_t first, std::uint32_t seeds) {
        return per_seed(spec, first, seeds, run_scenario);
      });
  EXPECT_EQ(experiments, battery) << "run_experiment differs from run_battery";
  EXPECT_EQ(scenarios, battery) << "run_scenario differs from run_battery";
  for (const auto& [entry_point, text] :
       {std::pair<const char*, const std::string&>{"run_battery", battery},
        {"run_experiment", experiments},
        {"run_scenario", scenarios}}) {
    SCOPED_TRACE(entry_point);
    expect_matches_golden_text(text, "battery_small.json");
  }
}

TEST(SweepBaselineTest, ChainGridDiffersFromRingGrid) {
  // The cut edge must actually change the dynamics: a chain sweep that
  // reproduces the ring sweep byte-for-byte means the topology knob is
  // silently ignored somewhere between the spec and the engine.
  const std::string ring = SweepRunner(2).run(baseline_grid()).to_json();
  const std::string chain = SweepRunner(2).run(chain_grid()).to_json();
  EXPECT_NE(ring, chain);
}

}  // namespace
}  // namespace pef

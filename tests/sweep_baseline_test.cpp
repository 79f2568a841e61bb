// Sweep regression baseline: a small, fully deterministic sweep grid whose
// JSON is checked into tests/baselines/.  Any change to engine semantics,
// seeding, grid enumeration or JSON shape shows up as a diff here — the
// cross-PR tripwire for the whole (algorithm × adversary × model × n × k ×
// seed) pipeline.
//
// To regenerate after an *intentional* change:
//   PEF_UPDATE_BASELINES=1 build/sweep_baseline_test
// then review and commit the diff of the tests/baselines/*.json files.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

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

void expect_matches_golden(const SweepSpec& spec, const std::string& name) {
  const SweepResult result = SweepRunner(2).run(spec);
  const std::string json = result.to_json();
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
      << "sweep output diverged from tests/baselines/" << name << "; if "
         "the change is intentional, regenerate with PEF_UPDATE_BASELINES=1 "
         "and commit the diff";
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

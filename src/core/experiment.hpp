// The experiment harness: one call = one (algorithm, adversary, k, n, seed,
// horizon) run, fully analysed.  Benches and integration tests are thin
// loops over this.
//
// Scenarios are described by the data-only ScenarioSpec (core/spec.hpp);
// run_scenario() executes one.  ExperimentConfig remains as the thin
// programmatic adapter underneath (it holds live objects — an AlgorithmPtr,
// explicit placements — that a serializable spec cannot).
//
// Every run, under every execution model, is one traced solo Engine
// (engine/engine.hpp) followed by the trace analyses; run_battery is a loop
// of such runs.  The reference simulators stay the tests' oracle.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "adversary/adversary.hpp"
#include "analysis/coverage.hpp"
#include "analysis/towers.hpp"
#include "core/spec.hpp"
#include "dynamic_graph/properties.hpp"
#include "engine/engine.hpp"
#include "engine/placements.hpp"
#include "robot/algorithm.hpp"
#include "robot/robot.hpp"

namespace pef {

/// A named, seedable adversary family.  `make(ring, seed)` builds a fresh
/// adversary instance for one run.  This is the *runtime* adapter around an
/// AdversaryConfig — engine-level tests that need a bare factory use it;
/// everything data-shaped carries the config instead.
struct AdversarySpec {
  std::string name;
  std::function<AdversaryPtr(Ring, std::uint64_t)> make;
};

/// Adapt a config to a callable spec.  `robots` feeds cage/proof auto
/// width (see adversary_from_config).
[[nodiscard]] AdversarySpec spec_from_config(const AdversaryConfig& config,
                                             std::uint32_t robots = 0);

/// The standard adversary battery used by possibility benches: static,
/// Bernoulli p in {0.1, 0.5, 0.9}, rotating periodic, T-interval-connected,
/// bounded-absence, eventual-missing-edge, adaptive-missing-edge.  All are
/// connected-over-time by construction.  Factory form of
/// standard_battery_configs() (core/spec.hpp).
[[nodiscard]] std::vector<AdversarySpec> standard_battery();

/// Individual members of the battery (also usable on their own); thin
/// wrappers over the adversary registry.
[[nodiscard]] AdversarySpec static_spec();
[[nodiscard]] AdversarySpec bernoulli_spec(double p);
[[nodiscard]] AdversarySpec periodic_spec(std::uint32_t period,
                                          std::uint32_t duty);
[[nodiscard]] AdversarySpec t_interval_spec(Time interval);
[[nodiscard]] AdversarySpec bounded_absence_spec(Time max_absence);
[[nodiscard]] AdversarySpec eventual_missing_spec();
[[nodiscard]] AdversarySpec adaptive_missing_spec();

struct ExperimentConfig {
  std::uint32_t nodes = 4;
  std::uint32_t robots = 3;
  Topology topology = Topology::kRing;
  AlgorithmPtr algorithm;
  AdversaryConfig adversary;
  Time horizon = 2000;
  std::uint64_t seed = 1;
  /// Optional explicit placements; default = evenly spread, same chirality.
  /// Either way the start must be well-initiated (k < n, no tower).
  std::optional<std::vector<RobotPlacement>> placements;
  /// Patience used by the legality audit for suspected-missing edges.
  Time audit_patience = 0;  // 0 => horizon / 4
  /// Activation model.  SSYNC runs under seeded Bernoulli activation and
  /// ASYNC under seeded Bernoulli phase advancement (probability
  /// `activation_p`, same default as SweepGrid and pef_run).  The adversary
  /// runs as it is in every model; no registry kind reads the activation
  /// mask it is handed.
  ExecutionModel model = ExecutionModel::kFsync;
  double activation_p = 0.5;
};

struct RunResult {
  CoverageReport coverage;
  TowerReport towers;
  ConnectivityAudit legality;

  /// Finite-horizon perpetual-exploration verdict.
  bool perpetual = false;
  /// The realized evolving graph passed the connected-over-time audit.
  bool adversary_legal = false;

  std::string algorithm_name;
  std::string adversary_name;
  ExecutionModel model = ExecutionModel::kFsync;
  Topology topology = Topology::kRing;
  std::uint32_t nodes = 0;
  std::uint32_t robots = 0;
  Time horizon = 0;
  std::uint64_t seed = 0;
};

/// Canonical single-line JSON of one run's analysis — the scenario-shaped
/// counterpart of SweepResult::to_json() (deterministic: pure function of
/// the spec, so serve-layer caches may key it by canonical spec JSON).
[[nodiscard]] std::string run_result_to_json(const RunResult& result);

[[nodiscard]] RunResult run_experiment(const ExperimentConfig& config);

/// Run the config across `seeds` different seeds (first_seed, first_seed+1,
/// ...; config.seed is ignored); returns all results, one run_experiment
/// each.
[[nodiscard]] std::vector<RunResult> run_battery(ExperimentConfig config,
                                                 std::uint64_t first_seed,
                                                 std::uint32_t seeds);

/// Materialize a data-only spec into a runnable config (resolves the
/// algorithm name; everything else copies over).  Aborts if the spec does
/// not validate — call spec.validate() first for a recoverable error.
[[nodiscard]] ExperimentConfig to_experiment_config(const ScenarioSpec& spec);

/// One call = one spec: validate, materialize, run, analyse.
[[nodiscard]] RunResult run_scenario(const ScenarioSpec& spec);

/// The spec across `seeds` different seeds starting at `first_seed`
/// (spec.seed is ignored).
[[nodiscard]] std::vector<RunResult> run_battery(const ScenarioSpec& spec,
                                                 std::uint64_t first_seed,
                                                 std::uint32_t seeds);

}  // namespace pef

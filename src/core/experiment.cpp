#include "core/experiment.hpp"

#include "algorithms/registry.hpp"
#include "common/check.hpp"

namespace pef {

AdversarySpec spec_from_config(const AdversaryConfig& config,
                               std::uint32_t robots) {
  return {adversary_display_name(config),
          [config, robots](Ring ring, std::uint64_t seed) {
            return adversary_from_config(config, ring, seed, robots);
          }};
}

AdversarySpec static_spec() {
  return spec_from_config(adversary_config(AdversaryKind::kStatic));
}

AdversarySpec bernoulli_spec(double p) {
  return spec_from_config(
      adversary_config(AdversaryKind::kBernoulli, {{"p", p}}));
}

AdversarySpec periodic_spec(std::uint32_t period, std::uint32_t duty) {
  return spec_from_config(adversary_config(
      AdversaryKind::kPeriodic, {{"period", static_cast<double>(period)},
                                 {"duty", static_cast<double>(duty)}}));
}

AdversarySpec t_interval_spec(Time interval) {
  return spec_from_config(adversary_config(
      AdversaryKind::kTInterval,
      {{"interval", static_cast<double>(interval)}}));
}

AdversarySpec bounded_absence_spec(Time max_absence) {
  return spec_from_config(adversary_config(
      AdversaryKind::kBoundedAbsence,
      {{"max_absence", static_cast<double>(max_absence)}}));
}

AdversarySpec eventual_missing_spec() {
  return spec_from_config(adversary_config(AdversaryKind::kEventualMissing));
}

AdversarySpec adaptive_missing_spec() {
  return spec_from_config(adversary_config(AdversaryKind::kAdaptiveMissing));
}

std::vector<AdversarySpec> standard_battery() {
  std::vector<AdversarySpec> battery;
  for (const AdversaryConfig& config : standard_battery_configs()) {
    battery.push_back(spec_from_config(config));
  }
  return battery;
}

std::string run_result_to_json(const RunResult& result) {
  JsonWriter json;
  json.begin_object();
  json.field("algorithm", result.algorithm_name);
  json.field("adversary", result.adversary_name);
  json.field("model", to_string(result.model));
  json.field("topology", to_string(result.topology));
  json.field("n", result.nodes);
  json.field("k", result.robots);
  json.field("horizon", result.horizon);
  json.field("seed", result.seed);
  json.field("perpetual", result.perpetual);
  if (result.coverage.cover_time) {
    json.field("cover_time", *result.coverage.cover_time);
  } else {
    json.null_field("cover_time");
  }
  json.field("visited_nodes", result.coverage.visited_node_count);
  json.field("max_revisit_gap", result.coverage.max_revisit_gap);
  json.field("max_closed_gap", result.coverage.max_closed_gap);
  json.field("max_tower_size", result.towers.max_tower_size);
  json.field("tower_formations", result.towers.tower_formation_count);
  json.field("adversary_legal", result.adversary_legal);
  json.end_object();
  return json.str();
}

RunResult run_experiment(const ExperimentConfig& config) {
  PEF_CHECK(config.algorithm != nullptr);
  PEF_CHECK(config.robots >= 1);
  PEF_CHECK(config.nodes >= 2);
  PEF_CHECK(config.horizon >= 1);

  const Ring ring(config.nodes);
  const std::vector<RobotPlacement> placements =
      config.placements ? *config.placements
                        : spread_placements(ring, config.robots);
  EngineOptions options;
  options.record_trace = true;  // every analysis below reads the trace
  Engine engine = make_standard_engine(
      ring, config.model, config.algorithm,
      adversary_from_config(config.adversary, ring, config.seed,
                            config.robots, config.topology),
      placements, config.activation_p, config.seed, options);
  engine.run(config.horizon);
  const Trace& trace = engine.trace();

  RunResult result;
  result.coverage = analyze_coverage(trace);
  result.towers = analyze_towers(trace);
  const Time patience =
      config.audit_patience > 0 ? config.audit_patience : config.horizon / 4;
  result.legality = audit_connectivity(ring, trace.edge_history(), patience);
  result.perpetual = result.coverage.perpetual(config.nodes);
  result.adversary_legal = result.legality.connected_over_time;
  result.algorithm_name = config.algorithm->name();
  result.adversary_name = adversary_display_name(config.adversary);
  result.model = config.model;
  result.topology = config.topology;
  result.nodes = config.nodes;
  result.robots = config.robots;
  result.horizon = config.horizon;
  result.seed = config.seed;
  return result;
}

std::vector<RunResult> run_battery(ExperimentConfig config,
                                   std::uint64_t first_seed,
                                   std::uint32_t seeds) {
  std::vector<RunResult> results;
  results.reserve(seeds);
  for (std::uint32_t s = 0; s < seeds; ++s) {
    config.seed = first_seed + s;
    results.push_back(run_experiment(config));
  }
  return results;
}

ExperimentConfig to_experiment_config(const ScenarioSpec& spec) {
  const auto invalid = spec.validate();
  PEF_CHECK_MSG(!invalid.has_value(), "invalid scenario spec");
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

RunResult run_scenario(const ScenarioSpec& spec) {
  return run_experiment(to_experiment_config(spec));
}

std::vector<RunResult> run_battery(const ScenarioSpec& spec,
                                   std::uint64_t first_seed,
                                   std::uint32_t seeds) {
  return run_battery(to_experiment_config(spec), first_seed, seeds);
}

}  // namespace pef

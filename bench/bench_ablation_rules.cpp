// bench_ablation_rules — the design-choice ablation called out in
// DESIGN.md: PEF_3+'s Rules 2 and 3 are both necessary.
//
// Pits the full algorithm against its ablations and the natural baselines
// on the decisive workload (an eventual missing edge over a static base,
// every possible missing-edge position) and on the benign workloads where
// the baselines still work.  Expected shape:
//
//     algorithm         eventual-missing   static    t-interval
//     pef3+             100%               100%      100%
//     pef3+-no-rule2    fails              100%      (mostly ok)
//     pef3+-no-rule3    fails              100%      (mostly ok)
//     keep-direction    fails              100%      (mostly ok)
//     bounce            fails*             100%      100%
//
// (*) bounce robots never cross the far side of the missing edge in the
// same pattern PEF_3+ does; failures show up as starved nodes for some
// missing-edge positions / placements.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "common/args.hpp"
#include "common/bench_report.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/engine.hpp"

namespace pef {
namespace {

/// Fraction of runs that were perpetual, over every missing-edge position.
double eventual_missing_success(const std::string& algo, std::uint32_t n,
                                std::uint32_t k) {
  const Ring ring(n);
  std::uint32_t wins = 0;
  for (EdgeId missing = 0; missing < n; ++missing) {
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(ring), missing, 10);
    Engine engine(ring, make_algorithm(algo), make_oblivious(schedule),
                      spread_placements(ring, k));
    engine.run(500 * n);
    if (engine.coverage_report().perpetual(n)) ++wins;
  }
  return static_cast<double>(wins) / n;
}

double battery_success(const std::string& algo,
                       const AdversaryConfig& adversary, std::uint32_t n,
                       std::uint32_t k, std::uint32_t seeds) {
  std::uint32_t wins = 0;
  ScenarioSpec spec;
  spec.nodes = n;
  spec.robots = k;
  spec.algorithm = algo;
  spec.adversary = adversary;
  spec.horizon = 400 * n;
  for (const RunResult& run : run_battery(spec, 1, seeds)) {
    if (run.perpetual) ++wins;
  }
  return static_cast<double>(wins) / seeds;
}

std::string percent(double f) { return format_double(100.0 * f, 0) + "%"; }

}  // namespace
}  // namespace pef

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  constexpr std::uint32_t kNodes = 8;
  constexpr std::uint32_t kRobots = 3;
  constexpr std::uint32_t kSeeds = 8;

  std::cout << "=== Ablation: Rules 2 and 3 of PEF_3+ ===\n"
            << "n = " << kNodes << ", k = " << kRobots
            << "; eventual-missing sweeps all " << kNodes
            << " edge positions; others use " << kSeeds << " seeds.\n\n";

  const std::vector<std::string> algos = {
      "pef3+", "pef3+-no-rule2", "pef3+-no-rule3", "keep-direction",
      "bounce"};

  TextTable table({"algorithm", "eventual-missing", "static", "t-interval",
                   "bernoulli(0.5)"});
  CsvWriter csv("ablation_rules.csv",
                {"algorithm", "eventual_missing", "static", "t_interval",
                 "bernoulli"});
  BenchReport report("ablation_rules");

  double pef_score = 0, best_ablation_score = 0;
  for (const std::string& algo : algos) {
    const double missing =
        eventual_missing_success(algo, kNodes, kRobots);
    const double on_static = battery_success(
        algo, adversary_config(AdversaryKind::kStatic), kNodes, kRobots, 1);
    const double t_interval = battery_success(
        algo, adversary_config(AdversaryKind::kTInterval, {{"interval", 4}}),
        kNodes, kRobots, kSeeds);
    const double bernoulli = battery_success(
        algo, adversary_config(AdversaryKind::kBernoulli, {{"p", 0.5}}),
        kNodes, kRobots, kSeeds);
    if (algo == "pef3+") {
      pef_score = missing;
    } else if (algo == "pef3+-no-rule2" || algo == "pef3+-no-rule3") {
      best_ablation_score = std::max(best_ablation_score, missing);
    }
    table.add_row({algo, percent(missing), percent(on_static),
                   percent(t_interval), percent(bernoulli)});
    csv.add_row({algo, format_double(missing, 3), format_double(on_static, 3),
                 format_double(t_interval, 3), format_double(bernoulli, 3)});
    report.add_rounds(std::uint64_t{kNodes} * 500 * kNodes +
                      (1 + 2 * std::uint64_t{kSeeds}) * 400 * kNodes);
    report.add_cell()
        .param("algorithm", algo)
        .param("n", std::uint64_t{kNodes})
        .param("k", std::uint64_t{kRobots})
        .metric("eventual_missing_success", missing)
        .metric("static_success", on_static)
        .metric("t_interval_success", t_interval)
        .metric("bernoulli_success", bernoulli);
  }
  table.print(std::cout);

  const bool shape_holds = pef_score == 1.0 && best_ablation_score < 1.0;
  std::cout << "\nExpected shape: only the full PEF_3+ survives every "
               "eventual-missing position; each ablation loses the "
               "sentinel/explorer protocol.\nAblation reproduction "
            << (shape_holds ? "HOLDS" : "FAILS") << ".\n";
  report.summary("shape_holds", shape_holds);
  if (!report.write()) return 2;
  return shape_holds ? 0 : 1;
}

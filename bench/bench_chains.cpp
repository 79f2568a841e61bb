// bench_chains — the paper's closing remark: "a connected-over-time chain
// can be seen as a connected-over-time ring with a missing edge.  So, our
// results are also valid on connected-over-time chains."
//
// Regenerates TABLE 1 on chains: possible cells run the recommended
// algorithm on chains whose surviving edges follow the battery's dynamics;
// impossible cells reuse the staged proof adversaries with the
// confinement window placed away from the cut edge.
#include <iostream>
#include <string>
#include <vector>

#include "adversary/proof_adversary.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "common/args.hpp"
#include "common/bench_report.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/computability.hpp"
#include "dynamic_graph/chain.hpp"
#include "dynamic_graph/properties.hpp"
#include "engine/engine.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

constexpr std::uint32_t kSeeds = 8;

/// Chain dynamics battery: the surviving n-1 edges follow each base family.
std::vector<std::pair<std::string, SchedulePtr>> chain_battery(
    const Ring& ring, std::uint64_t seed) {
  std::vector<std::pair<std::string, SchedulePtr>> out;
  out.emplace_back("static", ChainSchedule::cut_last(
                                 std::make_shared<StaticSchedule>(ring)));
  out.emplace_back("bernoulli(0.5)",
                   ChainSchedule::cut_last(std::make_shared<BernoulliSchedule>(
                       ring, 0.5, seed)));
  out.emplace_back(
      "bounded-absence",
      ChainSchedule::cut_last(std::make_shared<BoundedAbsenceSchedule>(
          ring, 5, 8, seed)));
  return out;
}

bool chain_possible(std::uint32_t n, std::uint32_t k) {
  const std::string algo = computability::recommended_algorithm(k, n);
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    for (const auto& [name, schedule] : chain_battery(Ring(n), seed)) {
      Engine engine(Ring(n), make_algorithm(algo),
                        make_oblivious(schedule),
                        spread_placements(Ring(n), k));
      engine.run(600 * n);
      if (!engine.coverage_report().perpetual(n)) return false;
    }
  }
  return true;
}

bool chain_impossible(std::uint32_t n, std::uint32_t k) {
  // Window {1, ..., k+1} keeps clear of the cut edge (n-1, 0).
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(n);
    std::vector<RobotPlacement> placements;
    for (std::uint32_t i = 0; i < k; ++i) {
      placements.push_back({static_cast<NodeId>(1 + i), Chirality(true)});
    }
    Engine engine(
        ring, make_algorithm(name),
        std::make_unique<StagedProofAdversary>(ring, 1, k + 1, 64),
        placements);
    engine.run(500 * n);
    if (engine.coverage_report().perpetual(n)) return false;
  }
  return true;
}

}  // namespace
}  // namespace pef

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  std::cout << "=== TABLE 1 on connected-over-time chains ===\n"
            << "(paper, Section 1: results carry over to chains)\n\n";

  TextTable table(
      {"robots", "chain size", "paper", "measured", "workload"});
  CsvWriter csv("chains.csv", {"robots", "nodes", "paper", "measured"});
  BenchReport report("chains");

  struct Cell {
    std::uint32_t k;
    std::uint32_t n;
    bool possible;
  };
  const std::vector<Cell> cells = {
      {3, 4, true},  {3, 8, true},  {4, 10, true}, {2, 3, true},
      {2, 4, false}, {2, 8, false}, {1, 2, true},  {1, 3, false},
      {1, 6, false},
  };

  bool holds = true;
  for (const Cell& cell : cells) {
    const bool measured = cell.possible ? chain_possible(cell.n, cell.k)
                                        : !chain_impossible(cell.n, cell.k);
    const bool match = measured == cell.possible;
    holds = holds && match;
    table.add_row({std::to_string(cell.k), std::to_string(cell.n),
                   cell.possible ? "Possible" : "Impossible",
                   (measured ? "Possible" : "Impossible") +
                       std::string(match ? "" : "  <-- MISMATCH"),
                   cell.possible ? "chain battery" : "proof adversary"});
    csv.add_row({std::to_string(cell.k), std::to_string(cell.n),
                 cell.possible ? "Possible" : "Impossible",
                 measured ? "Possible" : "Impossible"});
    report.add_rounds(cell.possible
                          ? std::uint64_t{kSeeds} * 3 * 600 * cell.n
                          : static_cast<std::uint64_t>(
                                deterministic_algorithm_names().size()) *
                                500 * cell.n);
    report.add_cell()
        .param("k", std::uint64_t{cell.k})
        .param("n", std::uint64_t{cell.n})
        .param("workload",
               cell.possible ? "chain battery" : "proof adversary")
        .metric("paper_possible", cell.possible)
        .metric("measured_possible", measured)
        .metric("match", match);
  }
  table.print(std::cout);
  std::cout << "\nChain reproduction " << (holds ? "HOLDS" : "FAILS")
            << ".\n";
  report.summary("reproduction_holds", holds);
  if (!report.write()) return 2;
  return holds ? 0 : 1;
}

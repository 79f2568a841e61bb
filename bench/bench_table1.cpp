// bench_table1 — regenerates TABLE 1 of the paper ("Overview of the
// results"): for every (k, n) regime, the measured possibility/impossibility
// of perpetual exploration on connected-over-time rings.
//
//   * Possible rows are validated by running the paper's algorithm for the
//     cell against the full standard adversary battery across seeds and
//     requiring a perpetual-exploration verdict on every run.
//   * Impossible rows are validated by running EVERY deterministic
//     algorithm in the registry against the staged proof adversary
//     (Theorems 4.1 / 5.1) and requiring that each one fails while the
//     realized evolving graph stays connected-over-time.
//
// Expected output shape (matching the paper):
//   3+ robots, n >= 4  -> Possible   (Theorem 3.1)
//   2 robots,  n > 3   -> Impossible (Theorem 4.1)
//   2 robots,  n = 3   -> Possible   (Theorem 4.2)
//   1 robot,   n > 2   -> Impossible (Theorem 5.1)
//   1 robot,   n = 2   -> Possible   (Theorem 5.2)
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
#include "core/experiment.hpp"
#include "dynamic_graph/properties.hpp"
#include "engine/engine.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

constexpr std::uint32_t kSeeds = 12;
constexpr Time kPatience = 64;

struct CellResult {
  bool measured_possible = true;
  std::uint32_t runs = 0;
  std::uint32_t failures = 0;
  bool all_legal = true;
  std::string detail;
  std::uint64_t rounds = 0;
};

// Possible cell: the recommended algorithm must beat the whole battery.
CellResult measure_possible(std::uint32_t n, std::uint32_t k) {
  CellResult cell;
  const std::string algo = computability::recommended_algorithm(k, n);
  for (const AdversaryConfig& adversary : standard_battery_configs()) {
    ScenarioSpec spec;
    spec.nodes = n;
    spec.robots = k;
    spec.algorithm = algo;
    spec.adversary = adversary;
    spec.horizon = 500 * n;
    for (const RunResult& run : run_battery(spec, 1, kSeeds)) {
      ++cell.runs;
      cell.rounds += spec.horizon;
      if (!run.perpetual) {
        ++cell.failures;
        cell.measured_possible = false;
      }
      cell.all_legal = cell.all_legal && run.adversary_legal;
    }
  }
  cell.detail = algo + " vs battery";
  return cell;
}

// Impossible cell: the staged proof adversary must defeat every
// deterministic algorithm with a legal (connected-over-time) prefix.
CellResult measure_impossible(std::uint32_t n, std::uint32_t k) {
  CellResult cell;
  cell.measured_possible = false;
  for (const std::string& name : deterministic_algorithm_names()) {
    const Ring ring(n);
    std::vector<RobotPlacement> placements;
    for (std::uint32_t i = 0; i < k; ++i) {
      placements.push_back({static_cast<NodeId>(i), Chirality(true)});
    }
    EngineOptions options;
    options.record_trace = true;  // the legality audit reads edge history
    Engine engine(
        ring, make_algorithm(name),
        std::make_unique<StagedProofAdversary>(ring, 0, k + 1, kPatience),
        placements, options);
    engine.run(500 * n);
    ++cell.runs;
    cell.rounds += 500 * n;
    const bool survived = engine.coverage_report().perpetual(n);
    if (survived) {
      ++cell.failures;  // an algorithm surviving would refute the row
      cell.measured_possible = true;
    }
    const auto audit = audit_connectivity(ring,
                                          engine.trace().edge_history(),
                                          /*patience=*/125 * n);
    cell.all_legal = cell.all_legal && audit.connected_over_time;
  }
  cell.detail = "proof adversary vs " +
                std::to_string(deterministic_algorithm_names().size()) +
                " algorithms";
  return cell;
}

std::string verdict_string(bool possible) {
  return possible ? "Possible" : "Impossible";
}

}  // namespace
}  // namespace pef

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  std::cout << "=== TABLE 1 (paper) vs measured ===\n"
            << "Perpetual exploration of connected-over-time rings, FSYNC.\n"
            << "Seeds per (cell, adversary): " << kSeeds << "\n\n";

  TextTable table({"robots", "ring size", "paper", "measured", "theorem",
                   "runs", "fail", "legal", "workload"});
  CsvWriter csv("table1.csv", {"robots", "nodes", "paper", "measured",
                               "runs", "failures", "legal"});
  BenchReport report("table1");

  struct Row {
    std::string robots_label;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> cells;  // (k, n)
    bool paper_possible;
  };
  const std::vector<Row> rows = {
      {"3 and more", {{3, 4}, {3, 8}, {4, 10}, {5, 12}}, true},
      {"2", {{2, 4}, {2, 6}, {2, 10}}, false},
      {"2", {{2, 3}}, true},
      {"1", {{1, 3}, {1, 5}, {1, 9}}, false},
      {"1", {{1, 2}}, true},
  };

  bool reproduction_holds = true;
  for (const Row& row : rows) {
    bool first = true;
    for (const auto& [k, n] : row.cells) {
      const CellResult cell = row.paper_possible ? measure_possible(n, k)
                                                 : measure_impossible(n, k);
      const bool match = cell.measured_possible == row.paper_possible &&
                         cell.all_legal;
      reproduction_holds = reproduction_holds && match;
      table.add_row({first ? row.robots_label : "",
                     "n = " + std::to_string(n),
                     verdict_string(row.paper_possible),
                     verdict_string(cell.measured_possible) +
                         (match ? "" : "  <-- MISMATCH"),
                     computability::supporting_theorem(k, n),
                     std::to_string(cell.runs),
                     std::to_string(cell.failures),
                     format_bool(cell.all_legal), cell.detail});
      csv.add_row({std::to_string(k), std::to_string(n),
                   verdict_string(row.paper_possible),
                   verdict_string(cell.measured_possible),
                   std::to_string(cell.runs), std::to_string(cell.failures),
                   format_bool(cell.all_legal)});
      report.add_rounds(cell.rounds);
      report.add_cell()
          .param("k", std::uint64_t{k})
          .param("n", std::uint64_t{n})
          .param("workload", cell.detail)
          .metric("paper_possible", row.paper_possible)
          .metric("measured_possible", cell.measured_possible)
          .metric("runs", std::uint64_t{cell.runs})
          .metric("failures", std::uint64_t{cell.failures})
          .metric("all_legal", cell.all_legal)
          .metric("match", match);
      first = false;
    }
    table.add_separator();
  }

  table.print(std::cout);
  std::cout << "\nReproduction "
            << (reproduction_holds ? "HOLDS" : "FAILS")
            << ": every cell matches TABLE 1 of the paper and every "
               "adversary prefix passed the connected-over-time audit.\n";
  report.summary("reproduction_holds", reproduction_holds);
  if (!report.write()) return 2;
  return reproduction_holds ? 0 : 1;
}

// bench_fig3_thm51 — regenerates Figure 3 / Theorem 5.1: a single fully
// synchronous robot cannot perpetually explore a connected-over-time ring
// of size >= 3.
//
// The staged adversary alternates removing e_ur until the robot leaves u,
// then e_vl until it leaves v (Figure 3's two-panel surgery), confining the
// robot to {u, v} forever; camping algorithms are handled by the terminal
// single-eventual-missing-edge fallback.
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
#include "dynamic_graph/properties.hpp"
#include "engine/engine.hpp"
#include "scheduler/simulator.hpp"

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  std::cout << "=== Figure 3 / Theorem 5.1: one robot, ring size >= 3 ===\n"
            << "Staged proof adversary (window {u, v}, patience 64).\n\n";

  TextTable table({"n", "algorithm", "visited", "perpetual", "stages",
                   "terminal", "legal"});
  CsvWriter csv("fig3_thm51.csv", {"n", "algorithm", "visited", "perpetual",
                                   "stages", "terminal", "legal"});
  BenchReport report("fig3_thm51");

  bool all_defeated = true;
  for (std::uint32_t n : {3u, 5u, 8u, 12u}) {
    for (const std::string& name : deterministic_algorithm_names()) {
      const Ring ring(n);
      auto adversary = std::make_unique<StagedProofAdversary>(
          ring, /*anchor=*/0, /*width=*/2, /*patience=*/64);
      auto* handle = adversary.get();
      EngineOptions options;
      options.record_trace = true;  // the legality audit reads edge history
      Engine sim(ring, make_algorithm(name), std::move(adversary),
                     {{0, Chirality(true)}}, options);
      sim.run(600 * n);
      report.add_rounds(600 * n);
      const auto coverage = sim.coverage_report();
      const auto audit = audit_connectivity(
          ring, sim.trace().edge_history(), /*patience=*/150 * n);
      const bool defeated = !coverage.perpetual(n);
      all_defeated = all_defeated && defeated && audit.connected_over_time;
      table.add_row({std::to_string(n), name,
                     std::to_string(coverage.visited_node_count) + "/" +
                         std::to_string(n),
                     format_bool(coverage.perpetual(n)),
                     std::to_string(handle->stages_completed()),
                     format_bool(handle->in_terminal_mode()),
                     format_bool(audit.connected_over_time)});
      csv.add_row({std::to_string(n), name,
                   std::to_string(coverage.visited_node_count),
                   format_bool(coverage.perpetual(n)),
                   std::to_string(handle->stages_completed()),
                   format_bool(handle->in_terminal_mode()),
                   format_bool(audit.connected_over_time)});
      report.add_cell()
          .param("n", std::uint64_t{n})
          .param("algorithm", name)
          .metric("visited_nodes", std::uint64_t{coverage.visited_node_count})
          .metric("perpetual", coverage.perpetual(n))
          .metric("stages", std::uint64_t{handle->stages_completed()})
          .metric("terminal_mode", handle->in_terminal_mode())
          .metric("legal", audit.connected_over_time);
    }
    table.add_separator();
  }
  table.print(std::cout);

  std::cout << "\nStage log excerpt (n=5, algorithm=bounce) — the Figure 3 "
               "alternation (u=0, v=1):\n";
  {
    const Ring ring(5);
    auto adversary = std::make_unique<StagedProofAdversary>(ring, 0, 2, 64);
    auto* handle = adversary.get();
    Simulator sim(ring, make_algorithm("bounce"), std::move(adversary),
                  {{0, Chirality(true)}});
    sim.run(40);
    TextTable stages({"stage", "rounds", "moves", "removed edge"});
    const auto& log = handle->stage_log();
    for (std::size_t i = 0; i < log.size() && i < 8; ++i) {
      stages.add_row({std::to_string(i + 1),
                      "[" + std::to_string(log[i].start) + ", " +
                          std::to_string(log[i].end) + "]",
                      std::to_string(log[i].from) + " -> " +
                          std::to_string(log[i].to),
                      "e" + std::to_string(log[i].removed_edges.empty()
                                               ? 999
                                               : log[i].removed_edges[0])});
    }
    stages.print(std::cout);
  }

  std::cout << "\nReproduction " << (all_defeated ? "HOLDS" : "FAILS")
            << ": a single robot never sees more than 2 nodes of any ring "
               "of size >= 3, under a connected-over-time prefix.\n";
  report.summary("reproduction_holds", all_defeated);
  if (!report.write()) return 2;
  return all_defeated ? 0 : 1;
}

// bench_fig2_thm41 — regenerates Figure 2 / Theorem 4.1: two fully
// synchronous robots cannot perpetually explore a connected-over-time ring
// of size >= 4.
//
// The staged proof adversary reproduces the inductive surgery of the proof
// (Items 1-8): freeze one robot, leave the other a single inward edge
// (OneEdge), rotate.  Output:
//   * one row per (ring size, algorithm): nodes visited vs n, number of
//     completed stages, whether the adversary had to fall back to terminal
//     mode (a single eventual missing edge, for camping algorithms), and
//     the connected-over-time audit of the realized prefix;
//   * the first 8 entries of the stage log for one run — the v->w, u->v,
//     v->u, w->v rotation of Figure 2.
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

  std::cout << "=== Figure 2 / Theorem 4.1: two robots, ring size >= 4 ===\n"
            << "Staged proof adversary (window {u, v, w}, patience 64).\n\n";

  TextTable table({"n", "algorithm", "visited", "perpetual", "stages",
                   "terminal", "legal", "max gap"});
  CsvWriter csv("fig2_thm41.csv", {"n", "algorithm", "visited", "perpetual",
                                   "stages", "terminal", "legal"});
  BenchReport report("fig2_thm41");

  bool all_defeated = true;
  for (std::uint32_t n : {4u, 6u, 8u, 12u}) {
    for (const std::string& name : deterministic_algorithm_names()) {
      const Ring ring(n);
      auto adversary = std::make_unique<StagedProofAdversary>(
          ring, /*anchor=*/0, /*width=*/3, /*patience=*/64);
      auto* handle = adversary.get();
      EngineOptions options;
      options.record_trace = true;  // the legality audit reads edge history
      Engine sim(ring, make_algorithm(name), std::move(adversary),
                     {{0, Chirality(true)}, {1, Chirality(true)}}, options);
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
                     format_bool(audit.connected_over_time),
                     std::to_string(coverage.max_revisit_gap)});
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

  // The Figure-2 rotation, shown against the bounce baseline (which keeps
  // departing under OneEdge, so staging runs forever).
  std::cout << "\nStage log excerpt (n=8, algorithm=bounce) — the Figure 2 "
               "rotation (u=0, v=1, w=2):\n";
  {
    const Ring ring(8);
    auto adversary = std::make_unique<StagedProofAdversary>(ring, 0, 3, 64);
    auto* handle = adversary.get();
    Simulator sim(ring, make_algorithm("bounce"), std::move(adversary),
                  {{0, Chirality(true)}, {1, Chirality(true)}});
    sim.run(200);
    TextTable stages({"stage", "rounds", "designated robot", "moves",
                      "removed edges (paper: G_{i+1} surgery)"});
    const auto& log = handle->stage_log();
    for (std::size_t i = 0; i < log.size() && i < 8; ++i) {
      std::string removed;
      for (EdgeId e : log[i].removed_edges) {
        if (!removed.empty()) removed += ", ";
        removed += "e" + std::to_string(e);
      }
      stages.add_row({std::to_string(i + 1),
                      "[" + std::to_string(log[i].start) + ", " +
                          std::to_string(log[i].end) + "]",
                      "r" + std::to_string(log[i].designated),
                      std::to_string(log[i].from) + " -> " +
                          std::to_string(log[i].to),
                      "{" + removed + "}"});
    }
    stages.print(std::cout);
  }

  std::cout << "\nReproduction " << (all_defeated ? "HOLDS" : "FAILS")
            << ": every deterministic algorithm is confined (or starved by "
               "the terminal single-missing-edge fallback) on every ring of "
               "size >= 4, with a connected-over-time prefix.\n";
  report.summary("reproduction_holds", all_defeated);
  if (!report.write()) return 2;
  return all_defeated ? 0 : 1;
}

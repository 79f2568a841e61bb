// bench_thm31_pef3plus — validates Theorem 3.1 at scale: PEF_3+ perpetually
// explores every connected-over-time ring of size n > k with k >= 3 robots.
//
// Sweeps (k, n) across the standard adversary battery and reports, per
// cell: perpetual verdict across all runs, mean/max revisit gap, mean cover
// time, tower-lemma checks (Lemmas 3.3 / 3.4) and sentinel formation on the
// eventual-missing-edge workloads (Lemma 3.7).
#include <iostream>
#include <string>
#include <vector>

#include "algorithms/registry.hpp"
#include "analysis/sentinels.hpp"
#include "analysis/stats.hpp"
#include "common/args.hpp"
#include "common/bench_report.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/engine.hpp"

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  constexpr std::uint32_t kSeeds = 8;

  std::cout << "=== Theorem 3.1: PEF_3+ with k >= 3 robots, n > k ===\n"
            << "Standard adversary battery, " << kSeeds
            << " seeds per (cell, adversary).\n\n";

  TextTable table({"k", "n", "perpetual", "gap mean", "gap max",
                   "cover mean", "towers<=2", "opp dirs"});
  CsvWriter csv("thm31_pef3plus.csv",
                {"k", "n", "perpetual", "gap_mean", "gap_max", "cover_mean",
                 "lemma34", "lemma33"});
  BenchReport bench_report("thm31_pef3plus");

  bool all_perpetual = true;
  for (std::uint32_t k : {3u, 4u, 5u}) {
    for (std::uint32_t n : {k + 1, k + 3, 2 * k + 2, 16u}) {
      if (n <= k) continue;
      bool cell_perpetual = true;
      bool lemma34 = true;
      bool lemma33 = true;
      std::vector<double> gaps;
      std::vector<double> covers;
      for (const AdversaryConfig& adversary : standard_battery_configs()) {
        ScenarioSpec spec;
        spec.nodes = n;
        spec.robots = k;
        spec.algorithm = "pef3+";
        spec.adversary = adversary;
        spec.horizon = 400 * n;
        bench_report.add_rounds(std::uint64_t{kSeeds} * spec.horizon);
        for (const RunResult& run : run_battery(spec, 1, kSeeds)) {
          cell_perpetual = cell_perpetual && run.perpetual;
          lemma34 = lemma34 && run.towers.lemma_3_4_holds;
          lemma33 = lemma33 && run.towers.lemma_3_3_holds;
          gaps.push_back(static_cast<double>(run.coverage.max_revisit_gap));
          if (run.coverage.cover_time) {
            covers.push_back(static_cast<double>(*run.coverage.cover_time));
          }
        }
      }
      all_perpetual = all_perpetual && cell_perpetual && lemma34 && lemma33;
      const Summary gap = summarize(gaps);
      const Summary cover = summarize(covers);
      table.add_row({std::to_string(k), std::to_string(n),
                     format_bool(cell_perpetual), format_double(gap.mean, 1),
                     format_double(gap.max, 0), format_double(cover.mean, 1),
                     format_bool(lemma34), format_bool(lemma33)});
      csv.add_row({std::to_string(k), std::to_string(n),
                   format_bool(cell_perpetual), format_double(gap.mean, 2),
                   format_double(gap.max, 0), format_double(cover.mean, 2),
                   format_bool(lemma34), format_bool(lemma33)});
      bench_report.add_cell()
          .param("k", std::uint64_t{k})
          .param("n", std::uint64_t{n})
          .metric("perpetual", cell_perpetual)
          .metric("gap_mean", gap.mean)
          .metric("gap_max", gap.max)
          .metric("cover_mean", cover.mean)
          .metric("lemma_3_4", lemma34)
          .metric("lemma_3_3", lemma33);
    }
    table.add_separator();
  }
  table.print(std::cout);

  // Lemma 3.7 spotlight: sentinel formation under an eventual missing edge.
  std::cout << "\nLemma 3.7 — sentinels at an eventual missing edge "
               "(static base, k robots on n=12):\n";
  TextTable sentinel_table(
      {"k", "missing edge", "sentinels", "explorers", "formed at"});
  for (std::uint32_t k : {3u, 4u, 5u}) {
    const Ring ring(12);
    const EdgeId missing = 7;
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        std::make_shared<StaticSchedule>(ring), missing, 20);
    EngineOptions options;
    options.record_trace = true;  // sentinel analysis reads the trace
    Engine engine(ring, make_algorithm("pef3+"),
                      make_oblivious(schedule), spread_placements(ring, k),
                      options);
    engine.run(6000);
    bench_report.add_rounds(6000);
    const auto report = analyze_sentinels(engine.trace(), missing);
    sentinel_table.add_row(
        {std::to_string(k), "e" + std::to_string(missing),
         std::to_string(report.sentinels_at_horizon.size()),
         std::to_string(report.explorers_at_horizon.size()),
         report.formation_time ? std::to_string(*report.formation_time)
                               : "never"});
  }
  sentinel_table.print(std::cout);
  std::cout << "\nExpected shape: 2 sentinels and k-2 explorers for every "
               "k (the paper's sentinel/explorer role split).\n";

  std::cout << "\nTheorem 3.1 reproduction "
            << (all_perpetual ? "HOLDS" : "FAILS") << ".\n";
  bench_report.summary("reproduction_holds", all_perpetual);
  if (!bench_report.write()) return 2;
  return all_perpetual ? 0 : 1;
}

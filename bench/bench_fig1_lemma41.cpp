// bench_fig1_lemma41 — regenerates Figure 1 of the paper: the five-case
// mirror construction of Lemma 4.1.
//
// For each of the five (i, f, a) geometries we (1) run an original 2-robot
// execution whose prefix satisfies the lemma's preconditions, (2) build the
// 8-node mirrored ring G' with the paper's edge constraints and the glued
// (f'1, f'2) pair, (3) replay the algorithm with two opposite-chirality
// robots, and (4) mechanically verify Claims 1-4.  The post-t column shows
// how long the two copies hold the glued extremities once the gluing edge
// vanishes (the OneEdge situation the theorem exploits).
#include <iostream>
#include <utility>
#include <vector>

#include "adversary/adversary.hpp"
#include "algorithms/registry.hpp"
#include "common/args.hpp"
#include "common/bench_report.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/lemma41.hpp"
#include "scheduler/simulator.hpp"

namespace pef::lemma41 {
namespace {

Trace run_original(const AlgorithmPtr& algorithm,
                   const std::vector<std::pair<bool, bool>>& around4,
                   Chirality r0_chirality) {
  const Ring ring(8);
  std::vector<EdgeSet> rounds;
  for (const auto& [e3, e4] : around4) {
    EdgeSet s(8);
    if (e3) s.insert(3);
    if (e4) s.insert(4);
    rounds.push_back(s);
  }
  auto schedule = std::make_shared<RecordedSchedule>(ring, rounds,
                                                     TailRule::kRepeatLast);
  Simulator sim(ring, algorithm, make_oblivious(schedule),
                {{4, r0_chirality}, {0, Chirality(true)}});
  sim.run(around4.size());
  return sim.trace();
}

struct Scenario {
  const char* label;
  const char* algorithm;
  Chirality chirality;
  std::vector<std::pair<bool, bool>> around4;  // (edge 3, edge 4) per round
};

}  // namespace
}  // namespace pef::lemma41

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();
  using namespace pef::lemma41;

  std::cout << "=== Figure 1 (Lemma 4.1): construction of G' ===\n"
            << "8-node mirrored ring, two opposite-chirality robots glued "
               "along (f'1, f'2).\n\n";

  const std::vector<Scenario> scenarios = {
      {"case i=f, d(i,a)=0", "keep-direction", Chirality(false),
       std::vector<std::pair<bool, bool>>(5, {false, false})},
      {"case i=f, a ccw", "bounce", Chirality(true),
       {{true, false}, {false, false}, {false, false}, {true, false}}},
      {"case i=f, a cw", "bounce", Chirality(true),
       {{false, true}, {false, false}, {false, false}, {false, true}}},
      {"case f=a, a cw", "bounce", Chirality(true),
       {{false, true}, {false, false}}},
      {"case f=a, a ccw", "keep-direction", Chirality(true),
       {{true, false}, {false, false}}},
  };

  TextTable table({"figure-1 case", "algorithm", "t", "claim1 sym",
                   "claim2 odd-dist", "claim3 replay", "claim4 glued",
                   "post-t hold", "nodes seen"});
  CsvWriter csv("fig1_lemma41.csv",
                {"case", "algorithm", "t", "claim1", "claim2", "claim3",
                 "claim4", "post_hold", "visited"});
  BenchReport bench_report("fig1_lemma41");

  bool all_hold = true;
  for (const Scenario& scenario : scenarios) {
    const auto algo = make_algorithm(scenario.algorithm);
    const Trace original =
        run_original(algo, scenario.around4, scenario.chirality);
    const Time t = scenario.around4.size();
    const auto prefix = extract_prefix(original, 0, t);
    if (!prefix) {
      std::cout << "precondition extraction failed for " << scenario.label
                << "\n";
      all_hold = false;
      continue;
    }
    const Construction construction = build(*prefix);
    const auto report = replay_and_verify(construction, algo, original, 0,
                                          *prefix, /*extra_rounds=*/120);
    all_hold = all_hold && report.all_claims();
    table.add_row({scenario.label, scenario.algorithm, std::to_string(t),
                   format_bool(report.claim1_symmetry),
                   format_bool(report.claim2_no_tower),
                   format_bool(report.claim3_replay),
                   format_bool(report.claim4_adjacent),
                   std::to_string(report.post_hold_rounds) + "/120",
                   std::to_string(report.visited_nodes) + "/8"});
    csv.add_row({scenario.label, scenario.algorithm, std::to_string(t),
                 format_bool(report.claim1_symmetry),
                 format_bool(report.claim2_no_tower),
                 format_bool(report.claim3_replay),
                 format_bool(report.claim4_adjacent),
                 std::to_string(report.post_hold_rounds),
                 std::to_string(report.visited_nodes)});
    bench_report.add_rounds(t + 120);
    bench_report.add_cell()
        .param("case", scenario.label)
        .param("algorithm", scenario.algorithm)
        .param("t", std::uint64_t{t})
        .metric("claim1_symmetry", report.claim1_symmetry)
        .metric("claim2_no_tower", report.claim2_no_tower)
        .metric("claim3_replay", report.claim3_replay)
        .metric("claim4_adjacent", report.claim4_adjacent)
        .metric("post_hold_rounds", std::uint64_t{report.post_hold_rounds})
        .metric("visited_nodes", std::uint64_t{report.visited_nodes});
  }

  table.print(std::cout);
  std::cout
      << "\nReading: a camping algorithm (keep-direction pointing at the "
         "glue) holds both extremities for the whole post-t window and sees "
         "only 2 of 8 nodes — exactly the contradiction Lemma 4.1 feeds "
         "into Theorem 4.1.  Claims 1-4 hold for every case, for any "
         "deterministic algorithm.\n"
      << "\nFigure-1 reproduction " << (all_hold ? "HOLDS" : "FAILS") << ".\n";
  bench_report.summary("reproduction_holds", all_hold);
  if (!bench_report.write()) return 2;
  return all_hold ? 0 : 1;
}

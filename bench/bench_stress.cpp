// bench_stress — dynamics-sensitivity sweep (extension bench of DESIGN.md):
// how the exploration quality of PEF_3+ degrades as the adversary gets
// harsher, versus the baselines.
//
// Series 1: max revisit gap vs Bernoulli presence probability p.
// Series 2: max revisit gap vs Markov failure burst length (1/p_recover).
// Series 3: the legality-capped greedy blocker (the worst legal
//           round-by-round choice) vs absence budget A.
//
// Expected shape: PEF_3+'s gap grows smoothly as dynamics harshen but the
// perpetual verdict never flips (Theorem 3.1 is adversary-universal).
// bounce tracks the others on the oblivious series but is *pinned forever*
// by the adaptive greedy blocker: it flips direction every round the
// pointed edge is missing, so the blocker alternates the robot's two edges
// one round each — every absence run has length 1 (maximally legal), yet
// the robot never coincides with a present pointed edge.  keep-direction
// never flips, so the budget forces its edge open every A+1 rounds and it
// keeps exploring here (it fails on eventual-missing workloads instead).
#include <iostream>
#include <string>
#include <vector>

#include "adversary/greedy_blocker.hpp"
#include "algorithms/registry.hpp"
#include "analysis/coverage.hpp"
#include "analysis/stats.hpp"
#include "common/args.hpp"
#include "common/bench_report.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "dynamic_graph/markov_schedule.hpp"
#include "dynamic_graph/schedules.hpp"
#include "engine/engine.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

constexpr std::uint32_t kNodes = 10;
constexpr std::uint32_t kRobots = 3;
constexpr std::uint32_t kSeeds = 6;
constexpr Time kHorizon = 8000;

struct SeriesPoint {
  bool perpetual = true;
  Summary gap;
};

template <typename MakeAdversary>
SeriesPoint run_point(const std::string& algo, MakeAdversary&& make) {
  // Engine without a trace: the coverage metrics come from the engine's
  // incremental bookkeeping (differential-tested against analyze_coverage).
  SeriesPoint point;
  std::vector<double> gaps;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    const Ring ring(kNodes);
    Engine engine(ring, make_algorithm(algo), make(ring, seed),
                      spread_placements(ring, kRobots));
    engine.run(kHorizon);
    const auto coverage = engine.coverage_report();
    point.perpetual = point.perpetual && coverage.perpetual(kNodes);
    gaps.push_back(static_cast<double>(coverage.max_revisit_gap));
  }
  point.gap = summarize(gaps);
  return point;
}

std::string cell(const SeriesPoint& p) {
  if (!p.perpetual) return "FAILS";
  return format_double(p.gap.mean, 0) + " (max " +
         format_double(p.gap.max, 0) + ")";
}

}  // namespace
}  // namespace pef

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  const std::vector<std::string> algos = {"pef3+", "bounce",
                                          "keep-direction"};

  std::cout << "=== Dynamics sensitivity (n=" << kNodes << ", k=" << kRobots
            << ", horizon=" << kHorizon << ", " << kSeeds
            << " seeds; cells = mean max-revisit-gap) ===\n\n";

  CsvWriter csv("stress.csv",
                {"series", "parameter", "algorithm", "perpetual",
                 "gap_mean", "gap_max"});
  BenchReport report("stress");
  const auto record = [&report](const std::string& series, double parameter,
                                const std::string& algo,
                                const SeriesPoint& point) {
    report.add_rounds(static_cast<std::uint64_t>(kSeeds) * kHorizon);
    report.add_cell()
        .param("series", series)
        .param("parameter", parameter)
        .param("algorithm", algo)
        .param("n", std::uint64_t{kNodes})
        .param("k", std::uint64_t{kRobots})
        .param("horizon", std::uint64_t{kHorizon})
        .param("seeds", std::uint64_t{kSeeds})
        .metric("perpetual", point.perpetual)
        .metric("gap_mean", point.gap.mean)
        .metric("gap_max", point.gap.max);
  };

  // --- Series 1: Bernoulli presence probability ---------------------------
  std::cout << "Series 1: iid presence probability p\n";
  {
    TextTable table({"p", "pef3+", "bounce", "keep-direction"});
    for (double p : {0.9, 0.5, 0.2, 0.1, 0.05}) {
      std::vector<std::string> row{format_double(p, 2)};
      for (const std::string& algo : algos) {
        const auto point = run_point(algo, [p](const Ring& ring,
                                               std::uint64_t seed) {
          return make_oblivious(
              std::make_shared<BernoulliSchedule>(ring, p, seed));
        });
        row.push_back(cell(point));
        record("bernoulli", p, algo, point);
        csv.add_row({"bernoulli", format_double(p, 2), algo,
                     format_bool(point.perpetual),
                     format_double(point.gap.mean, 1),
                     format_double(point.gap.max, 0)});
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }

  // --- Series 2: Markov burst length --------------------------------------
  std::cout << "\nSeries 2: Markov failure bursts (p_fail=0.1, expected "
               "down-run 1/p_recover)\n";
  {
    TextTable table({"mean burst", "pef3+", "bounce", "keep-direction"});
    for (double p_recover : {0.5, 0.25, 0.1, 0.05}) {
      std::vector<std::string> row{format_double(1.0 / p_recover, 0)};
      for (const std::string& algo : algos) {
        const auto point =
            run_point(algo, [p_recover](const Ring& ring,
                                        std::uint64_t seed) {
              return make_oblivious(std::make_shared<MarkovSchedule>(
                  ring, 0.1, p_recover, seed));
            });
        row.push_back(cell(point));
        record("markov", 1.0 / p_recover, algo, point);
        csv.add_row({"markov", format_double(1.0 / p_recover, 1), algo,
                     format_bool(point.perpetual),
                     format_double(point.gap.mean, 1),
                     format_double(point.gap.max, 0)});
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }

  // --- Series 3: greedy blocker budget ------------------------------------
  std::cout << "\nSeries 3: greedy pointed-edge blocker, absence budget A\n";
  {
    TextTable table({"A", "pef3+", "bounce", "keep-direction"});
    for (Time budget : {Time{2}, Time{4}, Time{8}, Time{16}}) {
      std::vector<std::string> row{std::to_string(budget)};
      for (const std::string& algo : algos) {
        const auto point =
            run_point(algo, [budget](const Ring& ring, std::uint64_t) {
              return std::make_unique<GreedyBlockerAdversary>(ring, budget);
            });
        row.push_back(cell(point));
        record("greedy-blocker", static_cast<double>(budget), algo, point);
        csv.add_row({"greedy-blocker", std::to_string(budget), algo,
                     format_bool(point.perpetual),
                     format_double(point.gap.mean, 1),
                     format_double(point.gap.max, 0)});
      }
      table.add_row(row);
    }
    table.print(std::cout);
  }

  std::cout << "\nExpected shape: pef3+ never flips to FAILS anywhere "
               "(Theorem 3.1); gaps grow as dynamics harshen.\n";
  return report.write() ? 0 : 2;
}

// bench_lemma37_sentinels — Lemma 3.7 as a measured series (extension):
// once an edge dies, how long until PEF_3+ posts sentinels on both of its
// extremities, as a function of ring size, robot count, and the dynamics
// of the surviving edges?
//
// The lemma only promises finiteness; the measured shape is what a
// practitioner would want: formation time grows linearly in n (a robot
// must walk to each extremity) and shrinks with extra robots (more
// candidates near the extremities), and survives flickering edges with a
// 1/p slowdown.
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
#include "dynamic_graph/schedules.hpp"
#include "engine/engine.hpp"
#include "scheduler/simulator.hpp"

namespace pef {
namespace {

constexpr std::uint32_t kSeeds = 10;

struct Point {
  Summary delay;  // formation_time - vanish_time across seeds
  std::uint32_t formed = 0;
  std::uint64_t rounds = 0;
};

Point measure(std::uint32_t n, std::uint32_t k, double p) {
  const Ring ring(n);
  const Time vanish = 10;
  Point point;
  std::vector<double> delays;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SchedulePtr base =
        p >= 1.0 ? SchedulePtr(std::make_shared<StaticSchedule>(ring))
                 : SchedulePtr(
                       std::make_shared<BernoulliSchedule>(ring, p, seed));
    const auto missing = static_cast<EdgeId>(
        derive_seed(seed, n, k) % ring.edge_count());
    auto schedule = std::make_shared<EventualMissingEdgeSchedule>(
        base, missing, vanish);
    EngineOptions options;
    options.record_trace = true;  // sentinel analysis reads the trace
    Engine engine(ring, make_algorithm("pef3+"),
                      make_oblivious(schedule),
                      random_placements(ring, k, seed), options);
    engine.run(600 * n);
    point.rounds += 600 * n;
    const auto report = analyze_sentinels(engine.trace(), missing);
    if (report.sentinels_formed()) {
      ++point.formed;
      delays.push_back(static_cast<double>(*report.formation_time - vanish));
    }
  }
  point.delay = summarize(delays);
  return point;
}

}  // namespace
}  // namespace pef

int main(int argc, char** argv) {
  using namespace pef;

  // No flags yet — but a typo'd flag must fail loudly, not run the
  // whole bench with the flag silently ignored.
  ArgParser args(argc, argv);
  args.check_unused();

  std::cout << "=== Lemma 3.7: sentinel formation delay after edge death ===\n"
            << kSeeds << " seeds per cell; delay = formation - vanish time; "
            << "cells show mean (max)\n\n";

  CsvWriter csv("lemma37_sentinels.csv",
                {"n", "k", "p", "formed", "delay_mean", "delay_max"});
  BenchReport report("lemma37_sentinels");
  const auto record = [&report](std::uint32_t n, std::uint32_t k, double p,
                                const Point& point) {
    report.add_rounds(point.rounds);
    report.add_cell()
        .param("n", std::uint64_t{n})
        .param("k", std::uint64_t{k})
        .param("p", p)
        .param("seeds", std::uint64_t{kSeeds})
        .metric("formed", std::uint64_t{point.formed})
        .metric("delay_mean", point.delay.mean)
        .metric("delay_max", point.delay.max);
  };

  std::cout << "Series 1: delay vs ring size (k=3, static survivors)\n";
  {
    TextTable table({"n", "formed", "delay mean", "delay max"});
    for (std::uint32_t n : {5u, 8u, 12u, 16u, 24u}) {
      const Point point = measure(n, 3, 1.0);
      record(n, 3, 1.0, point);
      table.add_row({std::to_string(n),
                     std::to_string(point.formed) + "/" +
                         std::to_string(kSeeds),
                     format_double(point.delay.mean, 1),
                     format_double(point.delay.max, 0)});
      csv.add_row({std::to_string(n), "3", "1.0",
                   std::to_string(point.formed),
                   format_double(point.delay.mean, 2),
                   format_double(point.delay.max, 0)});
    }
    table.print(std::cout);
  }

  std::cout << "\nSeries 2: delay vs robot count (n=12, static survivors)\n";
  {
    TextTable table({"k", "formed", "delay mean", "delay max"});
    for (std::uint32_t k : {3u, 4u, 6u, 8u}) {
      const Point point = measure(12, k, 1.0);
      record(12, k, 1.0, point);
      table.add_row({std::to_string(k),
                     std::to_string(point.formed) + "/" +
                         std::to_string(kSeeds),
                     format_double(point.delay.mean, 1),
                     format_double(point.delay.max, 0)});
      csv.add_row({"12", std::to_string(k), "1.0",
                   std::to_string(point.formed),
                   format_double(point.delay.mean, 2),
                   format_double(point.delay.max, 0)});
    }
    table.print(std::cout);
  }

  std::cout << "\nSeries 3: delay vs survivor flicker (n=10, k=3, "
               "Bernoulli p)\n";
  {
    TextTable table({"p", "formed", "delay mean", "delay max"});
    for (double p : {1.0, 0.8, 0.5, 0.3}) {
      const Point point = measure(10, 3, p);
      record(10, 3, p, point);
      table.add_row({format_double(p, 1),
                     std::to_string(point.formed) + "/" +
                         std::to_string(kSeeds),
                     format_double(point.delay.mean, 1),
                     format_double(point.delay.max, 0)});
      csv.add_row({"10", "3", format_double(p, 1),
                   std::to_string(point.formed),
                   format_double(point.delay.mean, 2),
                   format_double(point.delay.max, 0)});
    }
    table.print(std::cout);
  }

  std::cout << "\nExpected shape: formation always happens (Lemma 3.7), "
               "delay ~ linear in n, decreasing in k, ~1/p in flicker.\n";
  return report.write() ? 0 : 2;
}

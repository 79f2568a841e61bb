// Coverage analysis: turns a Trace into the perpetual-exploration metrics
// the benches report.
//
// Perpetual exploration ("every node visited infinitely often by at least
// one robot") is judged over a finite horizon by two complementary signals:
//   * max_revisit_gap — the longest stretch any node went unvisited,
//     counting the open gap at the end of the window (a node starving at the
//     horizon shows a gap that grows with the horizon; under a correct
//     algorithm the gap stays bounded by a function of n only);
//   * the suffix check — every node is visited again within the last
//     `suffix_window` rounds (a starving node fails it for any horizon).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"
#include "scheduler/trace.hpp"

namespace pef {

struct CoverageReport {
  /// Number of times each node was occupied at a round boundary.
  std::vector<std::uint64_t> visit_counts;

  /// First time every node had been visited at least once; nullopt if some
  /// node was never reached within the horizon.
  std::optional<Time> cover_time;

  /// Number of distinct nodes visited at least once.
  std::uint32_t visited_node_count = 0;

  /// Longest unvisited stretch of any node, including the open stretch at
  /// the horizon (so a node never visited contributes the full horizon).
  Time max_revisit_gap = 0;

  /// Longest *closed* gap (between two actual visits) — bounded for correct
  /// algorithms even on nodes that are eventually starved by design.
  Time max_closed_gap = 0;

  /// Nodes visited at least once during the final `suffix_window` rounds.
  std::uint32_t nodes_visited_in_suffix = 0;

  Time suffix_window = 0;
  Time horizon = 0;

  /// The finite-horizon perpetual-exploration verdict: all nodes visited,
  /// and all nodes visited again within the suffix window.
  [[nodiscard]] bool perpetual(std::uint32_t node_count) const {
    return visited_node_count == node_count &&
           nodes_visited_in_suffix == node_count;
  }
};

/// Analyse coverage over the whole trace.  `suffix_window` 0 means
/// horizon / 4 + 1 rounds, the default of Engine's and BatchEngine's
/// coverage reports too.
[[nodiscard]] CoverageReport analyze_coverage(const Trace& trace,
                                              Time suffix_window = 0);

/// Visit timestamps of one node (round boundaries at which it was occupied).
[[nodiscard]] std::vector<Time> visit_times(const Trace& trace, NodeId node);

}  // namespace pef

#include "scheduler/simulator.hpp"

#include "common/check.hpp"

namespace pef {

Simulator::Simulator(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
                     const std::vector<RobotPlacement>& placements,
                     SimulatorOptions options)
    : ring_(ring),
      algorithm_(std::move(algorithm)),
      adversary_(std::move(adversary)),
      options_(options) {
  PEF_CHECK(algorithm_ != nullptr);
  PEF_CHECK(adversary_ != nullptr);
  PEF_CHECK(adversary_->ring() == ring_);
  PEF_CHECK(!placements.empty());

  if (options_.enforce_well_initiated) {
    PEF_CHECK_MSG(placements.size() < ring_.node_count(),
                  "well-initiated executions need k < n");
    for (std::size_t a = 0; a < placements.size(); ++a) {
      for (std::size_t b = a + 1; b < placements.size(); ++b) {
        PEF_CHECK_MSG(placements[a].node != placements[b].node,
                      "well-initiated executions start towerless");
      }
    }
  }

  robots_.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    PEF_CHECK(ring_.is_valid_node(placements[i].node));
    robots_.emplace_back(static_cast<RobotId>(i), placements[i],
                         algorithm_->make_state(static_cast<RobotId>(i)));
  }
  activated_.assign(robots_.size(), 1);

  trace_ = std::make_unique<Trace>(ring_, snapshot());
}

Configuration Simulator::snapshot() const {
  std::vector<RobotSnapshot> snaps;
  snaps.reserve(robots_.size());
  for (const Robot& r : robots_) {
    RobotSnapshot s;
    s.node = r.node();
    s.dir = r.dir();
    s.chirality = r.chirality();
    snaps.push_back(std::move(s));
  }
  return Configuration(ring_, std::move(snaps));
}

RoundRecord Simulator::step() {
  const Configuration gamma = snapshot();
  const EdgeSet edges = adversary_->choose_edges(now_, gamma, activated_);
  PEF_CHECK(edges.edge_count() == ring_.edge_count());

  RoundRecord record;
  record.time = now_;
  record.edges = edges;
  record.robots.resize(robots_.size());

  // Look: every robot snapshots its local environment against (E_t, gamma_t).
  std::vector<View> views(robots_.size());
  for (RobotId i = 0; i < robots_.size(); ++i) {
    const Robot& r = robots_[i];
    const EdgeId ahead =
        ring_.adjacent_edge(r.node(), r.chirality().to_global(r.dir()));
    const EdgeId behind = ring_.adjacent_edge(
        r.node(), r.chirality().to_global(opposite(r.dir())));
    views[i].exists_edge_ahead = edges.contains(ahead);
    views[i].exists_edge_behind = edges.contains(behind);
    views[i].other_robots_on_node = gamma.robots_on(r.node()) > 1;

    record.robots[i].node_before = r.node();
    record.robots[i].dir_before = r.dir();
    record.robots[i].saw_other_robots = views[i].other_robots_on_node;
  }

  // Compute: each robot updates its own dir/state from its own view only —
  // in-place iteration is equivalent to the synchronous semantics.
  for (RobotId i = 0; i < robots_.size(); ++i) {
    Robot& r = robots_[i];
    LocalDirection dir = r.dir();
    algorithm_->compute(views[i], dir, r.state());
    r.set_dir(dir);
    record.robots[i].dir_after = dir;
  }

  // Move: cross the pointed edge iff present in E_t (same set all round).
  for (RobotId i = 0; i < robots_.size(); ++i) {
    Robot& r = robots_[i];
    const GlobalDirection gd = r.chirality().to_global(r.dir());
    const EdgeId pointed = ring_.adjacent_edge(r.node(), gd);
    if (edges.contains(pointed)) {
      r.set_node(ring_.neighbour(r.node(), gd));
      record.robots[i].moved = true;
    }
    record.robots[i].node_after = r.node();
  }

  ++now_;
  if (options_.record_trace) trace_->append(record);
  return record;
}

void Simulator::run(Time rounds) {
  for (Time i = 0; i < rounds; ++i) step();
}

}  // namespace pef

#include "scheduler/ssync.hpp"

#include "common/check.hpp"

namespace pef {

SsyncSimulator::SsyncSimulator(Ring ring, AlgorithmPtr algorithm,
                               AdversaryPtr adversary,
                               Activation activation,
                               const std::vector<RobotPlacement>& placements)
    : ring_(ring),
      algorithm_(std::move(algorithm)),
      adversary_(std::move(adversary)),
      activation_(activation) {
  PEF_CHECK(algorithm_ != nullptr);
  PEF_CHECK(adversary_ != nullptr);
  PEF_CHECK(activation_.model == ExecutionModel::kSsync);
  PEF_CHECK(adversary_->ring() == ring_);
  PEF_CHECK(!placements.empty());
  robots_.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    PEF_CHECK(ring_.is_valid_node(placements[i].node));
    robots_.emplace_back(static_cast<RobotId>(i), placements[i],
                         algorithm_->make_state(static_cast<RobotId>(i)));
  }
  trace_ = std::make_unique<Trace>(ring_, snapshot());
}

Configuration SsyncSimulator::snapshot() const {
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

RoundRecord SsyncSimulator::step() {
  const Configuration gamma = snapshot();
  activation_.fill(now_, static_cast<std::uint32_t>(robots_.size()),
                   activated_);
  const EdgeSet edges = adversary_->choose_edges(now_, gamma, activated_);

  RoundRecord record;
  record.time = now_;
  record.edges = edges;
  record.robots.resize(robots_.size());

  for (RobotId i = 0; i < robots_.size(); ++i) {
    Robot& r = robots_[i];
    record.robots[i].node_before = r.node();
    record.robots[i].dir_before = r.dir();
    record.robots[i].node_after = r.node();
    record.robots[i].dir_after = r.dir();
    if (activated_[i] == 0) continue;

    // Atomic L-C-M for the activated robot.
    View view;
    const EdgeId ahead =
        ring_.adjacent_edge(r.node(), r.chirality().to_global(r.dir()));
    const EdgeId behind = ring_.adjacent_edge(
        r.node(), r.chirality().to_global(opposite(r.dir())));
    view.exists_edge_ahead = edges.contains(ahead);
    view.exists_edge_behind = edges.contains(behind);
    view.other_robots_on_node = gamma.robots_on(r.node()) > 1;
    record.robots[i].saw_other_robots = view.other_robots_on_node;

    LocalDirection dir = r.dir();
    algorithm_->compute(view, dir, r.state());
    r.set_dir(dir);
    record.robots[i].dir_after = dir;

    const GlobalDirection gd = r.chirality().to_global(dir);
    const EdgeId pointed = ring_.adjacent_edge(r.node(), gd);
    if (edges.contains(pointed)) {
      r.set_node(ring_.neighbour(r.node(), gd));
      record.robots[i].moved = true;
    }
    record.robots[i].node_after = r.node();
  }

  ++now_;
  trace_->append(record);
  return record;
}

void SsyncSimulator::run(Time rounds) {
  for (Time i = 0; i < rounds; ++i) step();
}

}  // namespace pef

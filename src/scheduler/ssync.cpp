#include "scheduler/ssync.hpp"

#include "common/check.hpp"

namespace pef {

void BernoulliActivation::activate(Time, const Configuration& gamma,
                                   ActivationMask& mask) {
  mask.assign(gamma.robot_count(), 0);
  bool any = false;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    mask[i] = rng_.next_bool(p_) ? 1 : 0;
    any = any || mask[i] != 0;
  }
  if (!any) {
    mask[static_cast<std::size_t>(rng_.next_below(mask.size()))] = 1;
  }
}

void SsyncBlockingAdversary::choose_edges_into(
    Time, const Configuration& gamma, const ActivationMask& activated,
    EdgeSet& out) {
  out.fill();
  for (RobotId r = 0; r < gamma.robot_count(); ++r) {
    if (activated[r] == 0) continue;
    const NodeId u = gamma.robot(r).node;
    out.erase(ring_.adjacent_edge(u, GlobalDirection::kClockwise));
    out.erase(ring_.adjacent_edge(u, GlobalDirection::kCounterClockwise));
  }
}

SsyncSimulator::SsyncSimulator(Ring ring, AlgorithmPtr algorithm,
                               std::unique_ptr<SsyncAdversary> adversary,
                               std::unique_ptr<ActivationPolicy> activation,
                               const std::vector<RobotPlacement>& placements)
    : ring_(ring),
      algorithm_(std::move(algorithm)),
      adversary_(std::move(adversary)),
      activation_(std::move(activation)) {
  PEF_CHECK(algorithm_ != nullptr);
  PEF_CHECK(adversary_ != nullptr);
  PEF_CHECK(activation_ != nullptr);
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
  activation_->activate(now_, gamma, activated_);
  PEF_CHECK(activated_.size() == robots_.size());
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

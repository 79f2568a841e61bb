#include "scheduler/async.hpp"

#include "common/check.hpp"

namespace pef {

AsyncSimulator::AsyncSimulator(Ring ring, AlgorithmPtr algorithm,
                               AdversaryPtr adversary,
                               Activation activation,
                               const std::vector<RobotPlacement>& placements)
    : ring_(ring),
      algorithm_(std::move(algorithm)),
      adversary_(std::move(adversary)),
      activation_(activation) {
  PEF_CHECK(algorithm_ != nullptr);
  PEF_CHECK(adversary_ != nullptr);
  PEF_CHECK(activation_.model == ExecutionModel::kAsync);
  PEF_CHECK(adversary_->ring() == ring_);
  PEF_CHECK(!placements.empty());
  robots_.reserve(placements.size());
  for (std::size_t i = 0; i < placements.size(); ++i) {
    PEF_CHECK(ring_.is_valid_node(placements[i].node));
    robots_.emplace_back(static_cast<RobotId>(i), placements[i],
                         algorithm_->make_state(static_cast<RobotId>(i)));
  }
  phases_.assign(robots_.size(), Phase::kLook);
  pending_views_.assign(robots_.size(), View{});
  trace_ = std::make_unique<Trace>(ring_, snapshot());
}

Configuration AsyncSimulator::snapshot() const {
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

RoundRecord AsyncSimulator::step() {
  const Configuration gamma = snapshot();
  activation_.fill(now_, static_cast<std::uint32_t>(robots_.size()),
                   advancing_);

  // The adversary sees which robots fire their Move phase this tick (the
  // only phase that interacts with edges).
  moving_.assign(robots_.size(), 0);
  for (RobotId i = 0; i < robots_.size(); ++i) {
    moving_[i] = (advancing_[i] != 0 && phases_[i] == Phase::kMove) ? 1 : 0;
  }
  const EdgeSet edges = adversary_->choose_edges(now_, gamma, moving_);

  RoundRecord record;
  record.time = now_;
  record.edges = edges;
  record.robots.resize(robots_.size());

  for (RobotId i = 0; i < robots_.size(); ++i) {
    Robot& r = robots_[i];
    auto& rec = record.robots[i];
    rec.node_before = r.node();
    rec.node_after = r.node();
    rec.dir_before = r.dir();
    rec.dir_after = r.dir();
    if (advancing_[i] == 0) continue;

    switch (phases_[i]) {
      case Phase::kLook: {
        // Snapshot against the CURRENT edge set and configuration; the
        // view may be stale by the time Compute / Move execute.
        View view;
        const EdgeId ahead =
            ring_.adjacent_edge(r.node(), r.chirality().to_global(r.dir()));
        const EdgeId behind = ring_.adjacent_edge(
            r.node(), r.chirality().to_global(opposite(r.dir())));
        view.exists_edge_ahead = edges.contains(ahead);
        view.exists_edge_behind = edges.contains(behind);
        view.other_robots_on_node = gamma.robots_on(r.node()) > 1;
        pending_views_[i] = view;
        rec.saw_other_robots = view.other_robots_on_node;
        phases_[i] = Phase::kCompute;
        break;
      }
      case Phase::kCompute: {
        LocalDirection dir = r.dir();
        algorithm_->compute(pending_views_[i], dir, r.state());
        r.set_dir(dir);
        rec.dir_after = dir;
        phases_[i] = Phase::kMove;
        break;
      }
      case Phase::kMove: {
        const GlobalDirection gd = r.chirality().to_global(r.dir());
        const EdgeId pointed = ring_.adjacent_edge(r.node(), gd);
        if (edges.contains(pointed)) {
          r.set_node(ring_.neighbour(r.node(), gd));
          rec.moved = true;
        }
        rec.node_after = r.node();
        phases_[i] = Phase::kLook;
        break;
      }
    }
  }

  ++now_;
  trace_->append(record);
  return record;
}

void AsyncSimulator::run(Time rounds) {
  for (Time i = 0; i < rounds; ++i) step();
}

}  // namespace pef

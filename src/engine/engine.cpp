#include "engine/engine.hpp"

#include <algorithm>

#include "algorithms/kernels.hpp"
#include "common/check.hpp"

namespace pef {
namespace {

/// The algorithm's kernel: Engine runs no other Compute path.
KernelSpec kernel_of(const AlgorithmPtr& algorithm) {
  PEF_CHECK(algorithm != nullptr);
  const std::optional<KernelSpec> kernel = algorithm->kernel();
  PEF_CHECK_MSG(kernel.has_value(),
                "Engine runs the devirtualized kernel path; the algorithm "
                "must provide a kernel");
  return *kernel;
}

/// The Compute phase: the KernelId is a template argument, so each engine
/// loop instantiation inlines the kernel body directly.  The functor type
/// has internal linkage, which lets the compiler fold those loops into
/// step_* (as member templates over KernelId they were emitted out of
/// line).
template <KernelId Id>
struct KernelCompute {
  const KernelSpec* spec;
  KernelState* states;
  void operator()(RobotId i, const View& view, LocalDirection& dir) const {
    kernel_compute<Id>(*spec, view, dir, states[i]);
  }
};

}  // namespace

Engine make_standard_engine(Ring ring, ExecutionModel model,
                            AlgorithmPtr algorithm, AdversaryPtr adversary,
                            const std::vector<RobotPlacement>& placements,
                            double activation_p, std::uint64_t seed,
                            EngineOptions options) {
  return Engine(ring, std::move(algorithm), std::move(adversary),
                standard_activation(model, activation_p, seed), placements,
                options);
}

Engine::Engine(Ring ring, AlgorithmPtr algorithm, AdversaryPtr adversary,
               Activation activation,
               const std::vector<RobotPlacement>& placements,
               EngineOptions options)
    : ring_(ring),
      kernel_(kernel_of(algorithm)),
      model_(activation.model),
      options_(options),
      adversary_(std::move(adversary)),
      activation_(activation) {
  PEF_CHECK_MSG(model_ != ExecutionModel::kFsync ||
                    activation_.kind == ActivationKind::kFull,
                "FSYNC activates every robot every round");
  PEF_CHECK(adversary_ != nullptr);
  PEF_CHECK(adversary_->ring() == ring_);
  init(placements);
  if (model_ == ExecutionModel::kFsync) {
    activation_.fill(0, robot_count(), mask_);
  } else if (model_ == ExecutionModel::kAsync) {
    phases_.assign(node_.size(), Phase::kLook);
    pending_views_.assign(node_.size(), View{});
  }

  // A schedule-backed adversary never looks at gamma: bypass the
  // Configuration mirror entirely and fill the scratch EdgeSet in place.
  if (const auto* oblivious =
          dynamic_cast<const ObliviousAdversary*>(adversary_.get())) {
    schedule_ = oblivious->schedule().get();
  } else {
    gamma_mirror_ = std::make_unique<Configuration>(snapshot());
  }
}

void Engine::init(const std::vector<RobotPlacement>& placements) {
  PEF_CHECK(!placements.empty());

  // The paper's well-initiated executions: k < n robots, towerless.
  PEF_CHECK_MSG(placements.size() < ring_.node_count(),
                "well-initiated executions need k < n");
  for (std::size_t a = 0; a < placements.size(); ++a) {
    for (std::size_t b = a + 1; b < placements.size(); ++b) {
      PEF_CHECK_MSG(placements[a].node != placements[b].node,
                    "well-initiated executions start towerless");
    }
  }

  occ_.assign(ring_.node_count(), 0);
  edges_ = EdgeSet(ring_.edge_count());
  visit_counts_.assign(ring_.node_count(), 0);
  last_visit_.assign(ring_.node_count(), 0);
  visited_.assign(ring_.node_count(), 0);

  const auto k = static_cast<std::uint32_t>(placements.size());
  node_.reserve(k);
  dir_.reserve(k);
  right_cw_.reserve(k);
  kstates_.resize(k);
  for (std::uint32_t i = 0; i < k; ++i) {
    PEF_CHECK(ring_.is_valid_node(placements[i].node));
    node_.push_back(placements[i].node);
    dir_.push_back(static_cast<std::uint8_t>(LocalDirection::kLeft));
    right_cw_.push_back(placements[i].chirality.right_is_clockwise() ? 1 : 0);
    init_kernel_state(kernel_, static_cast<RobotId>(i), kstates_[i]);
    if (++occ_[placements[i].node] == 2) ++multi_nodes_;
  }

  observe_boundary(0);
  if (options_.record_trace) {
    trace_ = std::make_unique<Trace>(ring_, snapshot());
  }
}

Phase Engine::phase_of(RobotId r) const {
  PEF_CHECK_MSG(model_ == ExecutionModel::kAsync,
                "phase_of() is only available on ASYNC engines");
  return phases_[r];
}

Configuration Engine::snapshot() const {
  std::vector<RobotSnapshot> snaps;
  snaps.reserve(node_.size());
  for (std::size_t i = 0; i < node_.size(); ++i) {
    RobotSnapshot s;
    s.node = node_[i];
    s.dir = static_cast<LocalDirection>(dir_[i]);
    s.chirality = Chirality(right_cw_[i] != 0);
    snaps.push_back(std::move(s));
  }
  return Configuration(ring_, std::move(snaps));
}

void Engine::observe_boundary(Time t) {
  const std::uint32_t n = ring_.node_count();
  for (const NodeId u : node_) {
    ++visit_counts_[u];
    if (visited_[u]) {
      const Time gap = t - last_visit_[u];
      max_closed_gap_ = std::max(max_closed_gap_, gap);
    } else {
      visited_[u] = 1;
      if (++stats_.visited_node_count == n && !stats_.cover_time) {
        stats_.cover_time = t;
      }
    }
    last_visit_[u] = t;
  }
  if (multi_nodes_ > 0) {
    ++stats_.tower_rounds;
    if (!prev_had_tower_) ++stats_.tower_formations;
    prev_had_tower_ = true;
  } else {
    prev_had_tower_ = false;
  }
}

Engine::RobotFrame Engine::frame_of(RobotId i) const {
  const NodeId u = node_[i];
  const bool dir_right = dir_[i] != 0;
  // to_global(dir): right == right_is_clockwise ? cw : ccw.
  const bool ahead_cw = dir_right == (right_cw_[i] != 0);
  const EdgeId edge_cw = u;
  const EdgeId edge_ccw = u == 0 ? ring_.node_count() - 1 : u - 1;
  return {u, ahead_cw, ahead_cw ? edge_cw : edge_ccw,
          ahead_cw ? edge_ccw : edge_cw};
}

View Engine::look(const RobotFrame& frame) const {
  View view;
  view.exists_edge_ahead = edges_.contains_unchecked(frame.ahead);
  view.exists_edge_behind = edges_.contains_unchecked(frame.behind);
  view.other_robots_on_node = occ_[frame.node] > 1;
  return view;
}

bool Engine::apply_move(RobotId i, bool ahead_cw, EdgeId pointed) {
  if (!edges_.contains_unchecked(pointed)) return false;
  const std::uint32_t n = ring_.node_count();
  const NodeId u = node_[i];
  const NodeId to =
      ahead_cw ? (u + 1 == n ? 0 : u + 1) : (u == 0 ? n - 1 : u - 1);
  if (--occ_[u] == 1) --multi_nodes_;
  if (++occ_[to] == 2) ++multi_nodes_;
  node_[i] = to;
  ++stats_.total_moves;
  return true;
}

void Engine::refill_edges(const ActivationMask& activated) {
  // A fast-forward skip lands past refill_at_ or inside the same unchanged
  // span, so the schedule-backed fill stays exact across it.
  if (schedule_ != nullptr) {
    if (now_ >= refill_at_) {
      schedule_->edges_into(now_, edges_);
      refill_at_ = schedule_->next_change(now_);
    }
    return;
  }
  adversary_->choose_edges_into(now_, *gamma_mirror_, activated, edges_);
  PEF_CHECK(edges_.edge_count() == ring_.edge_count());
}

void Engine::refresh_mirror() {
  // Unchanged robots are no-op writes (relocate_robot self-checks), so one
  // pass over every robot serves every model.
  for (std::uint32_t i = 0; i < robot_count(); ++i) {
    gamma_mirror_->set_robot_dir(i, static_cast<LocalDirection>(dir_[i]));
    gamma_mirror_->relocate_robot(i, node_[i]);
  }
}

void Engine::step() {
  switch (model_) {
    case ExecutionModel::kFsync:
      step_fsync();
      break;
    case ExecutionModel::kSsync:
      step_ssync();
      break;
    case ExecutionModel::kAsync:
      step_async();
      break;
  }
  if (gamma_mirror_) refresh_mirror();
  ++now_;
  stats_.rounds = now_;
  observe_boundary(now_);
}

template <typename ComputeFn>
void Engine::look_compute_all(const ComputeFn& compute_fn) {
  const auto k = static_cast<std::uint32_t>(node_.size());
  for (std::uint32_t i = 0; i < k; ++i) {
    const View view = look(frame_of(i));
    LocalDirection dir = static_cast<LocalDirection>(dir_[i]);
    compute_fn(i, view, dir);
    dir_[i] = static_cast<std::uint8_t>(dir);
  }
}

template <typename ComputeFn>
void Engine::look_compute_list(const ComputeFn& compute_fn,
                               const std::vector<std::uint32_t>& idx) {
  for (const std::uint32_t i : idx) {
    const View view = look(frame_of(i));
    LocalDirection dir = static_cast<LocalDirection>(dir_[i]);
    compute_fn(i, view, dir);
    dir_[i] = static_cast<std::uint8_t>(dir);
  }
}

template <typename ComputeFn>
void Engine::compute_pending_list(const ComputeFn& compute_fn,
                                  const std::vector<std::uint32_t>& idx) {
  for (const std::uint32_t i : idx) {
    LocalDirection dir = static_cast<LocalDirection>(dir_[i]);
    compute_fn(i, pending_views_[i], dir);
    dir_[i] = static_cast<std::uint8_t>(dir);
    phases_[i] = Phase::kMove;
  }
}

void Engine::step_fsync() {
  const auto k = static_cast<std::uint32_t>(node_.size());

  refill_edges(mask_);  // every robot acts

  RoundRecord record;
  const bool tracing = trace_ != nullptr;
  if (tracing) {
    record.time = now_;
    record.edges = edges_;
    record.robots.resize(k);
    // The Look phase reads the start-of-round configuration, so every
    // view's multiplicity bit is reconstructable here, before any robot
    // acts: trace bookkeeping stays out of the per-kernel loop.
    for (std::uint32_t i = 0; i < k; ++i) {
      record.robots[i].node_before = node_[i];
      record.robots[i].dir_before = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].saw_other_robots = occ_[node_[i]] > 1;
    }
  }

  // Look + Compute.  The Look phase reads only node_/occ_/edges_, none of
  // which change before Move, so fusing the two phases preserves the
  // synchronous semantics; Compute writes only the robot's own dir/state.
  with_kernel_id(kernel_.id, [&]<KernelId Id>() {
    look_compute_all(KernelCompute<Id>{&kernel_, kstates_.data()});
  });

  // Move: cross the pointed edge iff present in E_t (same set all round).
  // Sequential in-place update is safe: Look already happened for everyone.
  for (std::uint32_t i = 0; i < k; ++i) {
    const RobotFrame frame = frame_of(i);
    const bool moved = apply_move(i, frame.ahead_cw, frame.ahead);
    if (tracing) {
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].moved = moved;
      record.robots[i].node_after = node_[i];
    }
  }

  if (tracing) trace_->append(std::move(record));
}

void Engine::step_ssync() {
  const auto k = static_cast<std::uint32_t>(node_.size());

  activation_.fill(now_, k, mask_);
  refill_edges(mask_);

  // Compact the activation mask once, so the Look+Compute and Move loops
  // iterate dense indices instead of re-testing (and mispredicting) the
  // mask per robot per pass.
  active_list_.clear();
  for (std::uint32_t i = 0; i < k; ++i) {
    if (mask_[i] != 0) active_list_.push_back(i);
  }

  RoundRecord record;
  const bool tracing = trace_ != nullptr;
  if (tracing) {
    record.time = now_;
    record.edges = edges_;
    record.robots.resize(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      record.robots[i].node_before = node_[i];
      record.robots[i].dir_before = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].node_after = node_[i];
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
    }
    // Activated robots' Looks all read the start-of-round occupancy.
    for (const std::uint32_t i : active_list_) {
      record.robots[i].saw_other_robots = occ_[node_[i]] > 1;
    }
  }

  // Look + Compute for the activated subset.  As in FSYNC, every activated
  // robot's Look reads the start-of-round configuration (occ_/node_ are
  // untouched until the Move pass below).
  with_kernel_id(kernel_.id, [&]<KernelId Id>() {
    look_compute_list(KernelCompute<Id>{&kernel_, kstates_.data()},
                      active_list_);
  });

  // Move for the activated subset.
  for (const std::uint32_t i : active_list_) {
    const RobotFrame frame = frame_of(i);
    const bool moved = apply_move(i, frame.ahead_cw, frame.ahead);
    if (tracing) {
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].moved = moved;
      record.robots[i].node_after = node_[i];
    }
  }

  if (tracing) trace_->append(std::move(record));
}

void Engine::step_async() {
  const auto k = static_cast<std::uint32_t>(node_.size());

  activation_.fill(now_, k, mask_);

  // The adversary sees which robots fire their Move phase this tick (the
  // only phase that interacts with edges).  One pass splits the advancing
  // set into its three per-phase index lists.
  moving_.assign(k, 0);
  look_list_.clear();
  compute_list_.clear();
  move_list_.clear();
  for (std::uint32_t i = 0; i < k; ++i) {
    if (mask_[i] == 0) continue;
    switch (phases_[i]) {
      case Phase::kLook:
        look_list_.push_back(i);
        break;
      case Phase::kCompute:
        compute_list_.push_back(i);
        break;
      case Phase::kMove:
        moving_[i] = 1;
        move_list_.push_back(i);
        break;
    }
  }
  refill_edges(moving_);

  RoundRecord record;
  const bool tracing = trace_ != nullptr;
  if (tracing) {
    record.time = now_;
    record.edges = edges_;
    record.robots.resize(k);
    for (std::uint32_t i = 0; i < k; ++i) {
      record.robots[i].node_before = node_[i];
      record.robots[i].dir_before = static_cast<LocalDirection>(dir_[i]);
      record.robots[i].node_after = node_[i];
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
    }
  }

  // Pass 1a: Look phases.  No robot has moved yet this tick, so occ_ is
  // exactly the tick-start occupancy every Look must see; Move phases
  // (already split into move_list_) run in pass 2.  The snapshot may be
  // stale by the time Compute / Move execute — that is the model.
  for (const std::uint32_t i : look_list_) {
    const View view = look(frame_of(i));
    pending_views_[i] = view;
    if (tracing) record.robots[i].saw_other_robots = view.other_robots_on_node;
    phases_[i] = Phase::kCompute;
  }

  // Pass 1b: Compute phases — the only ASYNC work that touches the
  // algorithm, and therefore the only templated loop.
  with_kernel_id(kernel_.id, [&]<KernelId Id>() {
    compute_pending_list(KernelCompute<Id>{&kernel_, kstates_.data()},
                         compute_list_);
  });
  if (tracing) {
    for (const std::uint32_t i : compute_list_) {
      record.robots[i].dir_after = static_cast<LocalDirection>(dir_[i]);
    }
  }

  // Pass 2: Move phases.
  for (const std::uint32_t i : move_list_) {
    const RobotFrame frame = frame_of(i);
    const bool moved = apply_move(i, frame.ahead_cw, frame.ahead);
    if (tracing) {
      record.robots[i].moved = moved;
      record.robots[i].node_after = node_[i];
    }
    phases_[i] = Phase::kLook;
  }

  if (tracing) trace_->append(std::move(record));
}

void Engine::run(Time rounds) {
  const Time target = now_ + rounds;
  // One tracker per run: the lattice must be sampled at every aligned
  // boundary, so detection never spans a step() made outside run().
  cycle_ = CycleTracker(options_.fast_forward, trace_ != nullptr, schedule_,
                        activation_.kind, robot_count(), ring_.node_count());
  if (!cycle_.eligible()) {
    while (now_ < target) step();
    return;
  }
  while (now_ < target) {
    if (cycle_.due(now_) && advance_cycle(target)) continue;
    step();
  }
}

bool Engine::advance_cycle(Time target) {
  if (cycle_.searching()) {
    const StateWords words = cycle_.sample_words();
    const bool rng_state = kernel_.id == KernelId::kRandomWalk;
    for (std::uint32_t i = 0; i < robot_count(); ++i) {
      const KernelState& ks = kstates_[i];
      words.robot(node_[i], dir_[i], right_cw_[i], ks.counter, ks.has_moved,
                  rng_state ? &ks.rng : nullptr);
    }
    if (model_ == ExecutionModel::kAsync) {
      for (std::uint32_t i = 0; i < robot_count(); ++i) {
        words.phase(phases_[i], pending_views_[i]);
      }
    }
  }
  const auto count_at = [this](NodeId u) { return visit_counts_[u]; };
  if (!cycle_.observe(now_, target, stats_, count_at)) return false;
  // The state at now_ equals the state at now_ + skip, and skip is a
  // multiple of the environment period, so the rest of the run replays at
  // the advanced clock bit-for-bit (visited / cover_time are monotone and
  // already settled within the measured period).
  const Time reps = cycle_.take_skip(now_, target);
  const Time skip = cycle_.skipped();
  cycle_.extrapolate(reps, stats_);
  cycle_.for_each_cycle_node([&](NodeId u, std::uint64_t delta) {
    visit_counts_[u] += delta * reps;
    last_visit_[u] += skip;
  });
  now_ += skip;
  stats_.rounds = now_;
  return true;
}

CoverageReport Engine::coverage_report(Time suffix_window) const {
  const std::uint32_t n = ring_.node_count();
  CoverageReport report;
  report.horizon = now_;
  report.suffix_window = suffix_window == 0 ? now_ / 4 + 1 : suffix_window;
  report.visit_counts = visit_counts_;
  report.visited_node_count = stats_.visited_node_count;
  report.cover_time = stats_.cover_time;
  report.max_closed_gap = max_closed_gap_;

  const Time suffix_start =
      now_ >= report.suffix_window ? now_ - report.suffix_window : 0;
  for (NodeId u = 0; u < n; ++u) {
    const Time open_gap = visited_[u] ? now_ - last_visit_[u] : now_;
    report.max_revisit_gap =
        std::max({report.max_revisit_gap, report.max_closed_gap, open_gap});
    if (visited_[u] && last_visit_[u] >= suffix_start) {
      ++report.nodes_visited_in_suffix;
    }
  }
  return report;
}

}  // namespace pef

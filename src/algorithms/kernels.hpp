// The devirtualized kernels of every registry algorithm.
//
// kernel_compute is the enum-dispatched Compute phase the engine inlines
// into its round loop: a switch over KernelId whose cases are the exact
// semantics of the virtual twins in pef1/pef2/pef3plus/baselines/ablations.
// Each case reads the same View, flips the same `dir`, and mutates the same
// logical state (held in the POD KernelState instead of a heap
// AlgorithmState), so a kernel run is bit-identical to a virtual run —
// tests/fast_engine_test.cpp and tests/unified_engine_test.cpp pin the
// engines (kernels) to the reference simulators (virtual twins) across
// adversaries and seeds.
//
// When adding a registry algorithm: add a KernelId, a case here, an
// Algorithm::kernel() override on the virtual class, and extend the
// differential test's registry sweep (it iterates algorithm_names(), so the
// sweep part is automatic).
#pragma once

#include "common/rng.hpp"
#include "robot/kernel.hpp"
#include "robot/view.hpp"

namespace pef {

/// Fresh kernel memory for one robot — the counterpart of
/// Algorithm::make_state.  Mirrors the virtual twins exactly: random-walk
/// derives the identical per-robot stream RandomWalk::make_state derives.
/// `State` is KernelState or any structurally-equivalent accessor (see
/// kernel_compute).
template <typename State>
inline void init_kernel_state(const KernelSpec& spec, RobotId robot,
                              State&& state) {
  state.counter = 0;
  state.has_moved = 0;
  if (spec.id == KernelId::kRandomWalk) {
    state.rng = Xoshiro256(derive_seed(spec.seed, robot, 0x72777761));
  }
}

/// The Compute phase, devirtualized — compile-time form.  The KernelId is a
/// template parameter so the engine can instantiate its whole round loop
/// per kernel and the compiler inlines the branch-free residue straight
/// into the loop body (dispatch happens once per round, not per robot).
/// `State` only needs KernelState's field names: Engine passes KernelState
/// itself, BatchEngine passes a proxy of references into its per-field
/// state planes (a robot's kernel memory lives replica-strided there, and
/// field planes keep the hot byte — pef3+'s has_moved — contiguous for the
/// vectorizer instead of strided across 48-byte structs).
/// Semantics of each case documented on the virtual twin; keep the two in
/// lockstep.
template <KernelId Id, typename State>
inline void kernel_compute(const KernelSpec& spec, const View& view,
                           LocalDirection& dir, State&& s) {
  if constexpr (Id == KernelId::kKeepDirection) {
    (void)spec, (void)view, (void)dir, (void)s;
  } else if constexpr (Id == KernelId::kBounce || Id == KernelId::kPef1) {
    // Bounce and PEF_1 share one rule: turn back iff the pointed edge is
    // absent and the other is present.
    if (!view.exists_edge_ahead && view.exists_edge_behind) {
      dir = opposite(dir);
    }
  } else if constexpr (Id == KernelId::kPef2) {
    if (!view.other_robots_on_node &&
        view.exists_edge_ahead != view.exists_edge_behind) {
      if (!view.exists_edge_ahead) dir = opposite(dir);
    }
  } else if constexpr (Id == KernelId::kPef3Plus) {
    bool ahead_is_incoming_dir = true;
    if (s.has_moved != 0 && view.other_robots_on_node) {
      dir = opposite(dir);  // Rule 3: arrived onto a tower -> turn back
      ahead_is_incoming_dir = false;
    }
    s.has_moved = view.exists_edge(ahead_is_incoming_dir) ? 1 : 0;
  } else if constexpr (Id == KernelId::kPef3PlusNoRule2) {
    bool ahead_is_incoming_dir = true;
    if (view.other_robots_on_node) {  // no HasMoved guard: Rule 2 dropped
      dir = opposite(dir);
      ahead_is_incoming_dir = false;
    }
    s.has_moved = view.exists_edge(ahead_is_incoming_dir) ? 1 : 0;
  } else if constexpr (Id == KernelId::kPef3PlusNoRule3) {
    s.has_moved = view.exists_edge_ahead ? 1 : 0;  // never turns
  } else if constexpr (Id == KernelId::kOscillating) {
    if (++s.counter >= spec.period) {
      dir = opposite(dir);
      s.counter = 0;
    }
  } else if constexpr (Id == KernelId::kRandomWalk) {
    if (s.rng.next_bool(0.5)) dir = opposite(dir);
  }
}

/// Invoke `fn` with the KernelId lifted to a compile-time template
/// argument: the single per-round dispatch point of the kernel path.
template <typename Fn>
inline decltype(auto) with_kernel_id(KernelId id, Fn&& fn) {
  switch (id) {
    case KernelId::kKeepDirection:
      return fn.template operator()<KernelId::kKeepDirection>();
    case KernelId::kBounce:
      return fn.template operator()<KernelId::kBounce>();
    case KernelId::kPef1:
      return fn.template operator()<KernelId::kPef1>();
    case KernelId::kPef2:
      return fn.template operator()<KernelId::kPef2>();
    case KernelId::kPef3Plus:
      return fn.template operator()<KernelId::kPef3Plus>();
    case KernelId::kPef3PlusNoRule2:
      return fn.template operator()<KernelId::kPef3PlusNoRule2>();
    case KernelId::kPef3PlusNoRule3:
      return fn.template operator()<KernelId::kPef3PlusNoRule3>();
    case KernelId::kOscillating:
      return fn.template operator()<KernelId::kOscillating>();
    case KernelId::kRandomWalk:
      return fn.template operator()<KernelId::kRandomWalk>();
  }
  return fn.template operator()<KernelId::kKeepDirection>();  // unreachable
}

}  // namespace pef

// The devirtualized algorithm-kernel API.
//
// Every registry algorithm exists in two forms: the canonical virtual
// `Algorithm` (heap AlgorithmState, virtual compute — the reference the
// proofs are read against) and an `AlgorithmKernel` twin: an enum-dispatched
// compute function over POD per-robot state that the engine compiles into
// its hot loop.  A kernel is identified by a KernelSpec — the KernelId plus
// the few scalar parameters (seed, period) a family needs — and its whole
// per-robot memory is one fixed-size KernelState, so an engine stores all
// robot memories in a single contiguous vector: no unique_ptr chase, no
// virtual call, per round.
//
// The engines run only the kernels and the reference simulators only the
// virtual classes; differential tests (tests/fast_engine_test.cpp,
// tests/unified_engine_test.cpp) pin the two bit-for-bit.  The kernel
// implementations themselves live in algorithms/kernels.hpp.
#pragma once

#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace pef {

/// One value per registry algorithm (virtual twins listed in
/// algorithms/registry.cpp).
enum class KernelId : std::uint8_t {
  kKeepDirection = 0,
  kBounce,
  kPef1,
  kPef2,
  kPef3Plus,
  kPef3PlusNoRule2,
  kPef3PlusNoRule3,
  kOscillating,
  kRandomWalk,
};

[[nodiscard]] constexpr const char* to_string(KernelId id) {
  switch (id) {
    case KernelId::kKeepDirection:
      return "keep-direction";
    case KernelId::kBounce:
      return "bounce";
    case KernelId::kPef1:
      return "pef1";
    case KernelId::kPef2:
      return "pef2";
    case KernelId::kPef3Plus:
      return "pef3+";
    case KernelId::kPef3PlusNoRule2:
      return "pef3+-no-rule2";
    case KernelId::kPef3PlusNoRule3:
      return "pef3+-no-rule3";
    case KernelId::kOscillating:
      return "oscillating";
    case KernelId::kRandomWalk:
      return "random-walk";
  }
  return "?";
}

/// A kernel plus the scalar parameters of its family.  Cheap to copy; the
/// engine keeps one per run and dispatches on `id` each Compute.
struct KernelSpec {
  KernelId id = KernelId::kKeepDirection;
  /// Master seed for randomized kernels (random-walk); robots derive their
  /// per-robot streams from it exactly like the virtual twin's make_state.
  std::uint64_t seed = 0;
  /// Turn period for oscillating.
  std::uint64_t period = 0;
};

/// The per-robot kernel memory: one fixed-size, trivially-copyable struct
/// covering every registry kernel (each uses the fields it needs).
///
/// The FIELD NAMES are the contract, not the struct: kernel_compute /
/// init_kernel_state are generic over any accessor exposing `rng`,
/// `counter` and `has_moved`.  Engine stores whole KernelStates in one
/// vector; BatchEngine stores each field as its own replica-strided plane
/// and passes a reference proxy, so a batched round touches only the bytes
/// the kernel actually uses (and the hot pef3+ flag stays contiguous for
/// the vectorizer).  Add new per-robot memory as a new field here plus a
/// plane + proxy entry in BatchEngine.
struct KernelState {
  Xoshiro256 rng{0};             // random-walk
  std::uint64_t counter = 0;     // oscillating: rounds since last turn
  std::uint8_t has_moved = 0;    // pef3+ family: HasMovedPreviousStep
};

}  // namespace pef

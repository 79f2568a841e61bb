// The adaptive "cage": the simplest confinement adversary.
//
// A fixed window of `w` consecutive nodes is chosen; every round the cage
// removes a window-boundary edge exactly when a robot stands on its inner
// endpoint, and presents every other edge.  No robot can ever cross a
// boundary (the crossing edge is absent whenever a robot could use it), so
// the visited set can never exceed the window: at most w < n nodes.
//
// Legality: each boundary edge is absent only while its inner endpoint is
// occupied.  Against algorithms that keep moving, all absence intervals are
// finite and the realized graph is connected-over-time — a legal witness
// that the algorithm does not explore.  Against algorithms that camp on a
// boundary node forever, a boundary edge may be absent for the whole suffix;
// the audit then reports up to two suspected-missing edges and the *staged*
// proof adversary (proof_adversary.hpp), which mirrors the paper's
// construction, must be used for a legal witness instead.
#pragma once

#include "adversary/adversary.hpp"

namespace pef {

class ConfinementAdversary final : public Adversary {
 public:
  /// Window = nodes {anchor, anchor+1, ..., anchor+width-1} (clockwise).
  /// Requires 2 <= width < n.
  ConfinementAdversary(Ring ring, NodeId anchor, std::uint32_t width);

  [[nodiscard]] const Ring& ring() const override { return ring_; }
  void choose_edges_into(Time t, const Configuration& gamma,
                         const ActivationMask& activated,
                         EdgeSet& out) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] NodeId window_node(std::uint32_t offset) const {
    return (anchor_ + offset) % ring_.node_count();
  }
  [[nodiscard]] bool in_window(NodeId u) const;

  /// The two boundary edges: crossing them exits the window.
  [[nodiscard]] EdgeId left_boundary_edge() const;   // ccw edge of anchor
  [[nodiscard]] EdgeId right_boundary_edge() const;  // cw edge of last node

 private:
  Ring ring_;
  NodeId anchor_;
  std::uint32_t width_;
};

}  // namespace pef

// Connected-over-time chains.
//
// The paper closes its contribution with: "Note that a connected-over-time
// chain can be seen as a connected-over-time ring with a missing edge.  So,
// our results are also valid on connected-over-time chains."  This header
// makes that executable: a chain of n nodes is a ring of n nodes whose edge
// n-1 (between nodes n-1 and 0) never appears, and every schedule family
// can be lifted onto it.
#pragma once

#include <memory>

#include "dynamic_graph/schedule.hpp"
#include "dynamic_graph/schedules.hpp"

namespace pef {

/// Wraps `base` so that the designated `cut` edge is never present: the
/// underlying graph becomes an n-node chain with endpoints edge_head(cut)
/// and edge_tail(cut).  If `base` is connected-over-time, the result is a
/// connected-over-time chain (the cut edge is the ring's single allowed
/// eventually-missing edge).
class ChainSchedule final : public EdgeSchedule {
 public:
  explicit ChainSchedule(SchedulePtr base, EdgeId cut)
      : base_(std::move(base)), cut_(cut) {}

  /// Convenience: cut the conventional last edge (n-1, 0).
  static std::shared_ptr<ChainSchedule> cut_last(SchedulePtr base) {
    const EdgeId cut = base->ring().edge_count() - 1;
    return std::make_shared<ChainSchedule>(std::move(base), cut);
  }

  [[nodiscard]] const Ring& ring() const override { return base_->ring(); }
  void edges_into_words(Time t, std::uint64_t* words) const override {
    base_->edges_into_words(t, words);
    words[cut_ >> 6] &= ~(std::uint64_t{1} << (cut_ & 63));
  }
  [[nodiscard]] Time next_change(Time t) const override {
    // Masking a fixed bit changes nothing over time (a static base yields
    // a static chain, so engines keep the fill-once path).
    return base_->next_change(t);
  }
  [[nodiscard]] ScheduleRecurrence recurrence() const override {
    // Masking a fixed bit also preserves the base's periodicity witness.
    return base_->recurrence();
  }
  [[nodiscard]] std::string name() const override {
    return "chain(" + base_->name() + ")";
  }

  [[nodiscard]] EdgeId cut_edge() const { return cut_; }
  /// The chain's two endpoint nodes.
  [[nodiscard]] NodeId left_end() const { return ring().edge_head(cut_); }
  [[nodiscard]] NodeId right_end() const { return ring().edge_tail(cut_); }

 private:
  SchedulePtr base_;
  EdgeId cut_;
};

}  // namespace pef

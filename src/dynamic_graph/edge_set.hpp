// Bit-set over ring edges: the set E_t of edges present at one round.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace pef {

class EdgeSet {
 public:
  EdgeSet() = default;
  explicit EdgeSet(std::uint32_t edge_count)
      : edge_count_(edge_count), words_((edge_count + 63) / 64, 0) {}

  /// Full set (all edges present).
  [[nodiscard]] static EdgeSet all(std::uint32_t edge_count) {
    EdgeSet s(edge_count);
    s.fill();
    return s;
  }

  /// Empty set (no edges present).
  [[nodiscard]] static EdgeSet none(std::uint32_t edge_count) {
    return EdgeSet(edge_count);
  }

  [[nodiscard]] std::uint32_t edge_count() const { return edge_count_; }

  [[nodiscard]] bool contains(EdgeId e) const {
    PEF_CHECK(e < edge_count_);
    return (words_[e >> 6] >> (e & 63)) & 1ULL;
  }

  /// `contains` without the bounds check, for engine hot loops that already
  /// guarantee `e < edge_count()` structurally (Ring::adjacent_edge can only
  /// produce valid ids).
  [[nodiscard]] bool contains_unchecked(EdgeId e) const {
    return (words_[e >> 6] >> (e & 63)) & 1ULL;
  }

  /// Raw bit words, one bit per edge, little-endian within each word.
  /// BatchEngine caches these pointers so its replica-stride inner loops
  /// test edge presence without re-resolving the vector each iteration;
  /// valid until the set is resized or assigned a differently-sized set.
  [[nodiscard]] const std::uint64_t* words() const { return words_.data(); }

  /// Writable words() for in-place row fillers.  Writers must leave the
  /// bits past edge_count() clear.
  [[nodiscard]] std::uint64_t* mutable_words() { return words_.data(); }

  /// Overwrite this set's bits from a raw word row in the words() layout
  /// ((edge_count + 63) / 64 words; bits past edge_count are masked off).
  /// Cold-path bridge from engine word planes back to EdgeSet (e.g. trace
  /// reconstruction); no reallocation.
  void assign_words(const std::uint64_t* words) {
    if (words_.empty()) return;
    const std::size_t last = words_.size() - 1;
    for (std::size_t i = 0; i < last; ++i) words_[i] = words[i];
    const std::uint32_t tail_bits =
        edge_count_ - static_cast<std::uint32_t>(last) * 64;
    const std::uint64_t tail_mask =
        tail_bits == 64 ? ~0ULL : (1ULL << tail_bits) - 1;
    words_[last] = words[last] & tail_mask;
  }

  void insert(EdgeId e) {
    PEF_CHECK(e < edge_count_);
    words_[e >> 6] |= (1ULL << (e & 63));
  }

  void erase(EdgeId e) {
    PEF_CHECK(e < edge_count_);
    words_[e >> 6] &= ~(1ULL << (e & 63));
  }

  void set(EdgeId e, bool present) { present ? insert(e) : erase(e); }

  /// Make every edge present / absent in place (no reallocation) — lets
  /// schedules refill a caller-owned scratch set instead of returning a
  /// fresh heap allocation per round.
  void fill() {
    if (words_.empty()) return;
    const std::size_t last = words_.size() - 1;
    for (std::size_t i = 0; i < last; ++i) words_[i] = ~0ULL;
    const std::uint32_t tail_bits =
        edge_count_ - static_cast<std::uint32_t>(last) * 64;
    words_[last] = tail_bits == 64 ? ~0ULL : (1ULL << tail_bits) - 1;
  }
  void clear() {
    for (std::uint64_t& w : words_) w = 0;
  }

  [[nodiscard]] std::uint32_t size() const {
    std::uint32_t total = 0;
    for (std::uint64_t w : words_) {
      total += static_cast<std::uint32_t>(__builtin_popcountll(w));
    }
    return total;
  }

  /// Early-exits on the first word that disagrees instead of popcounting
  /// the whole set.
  [[nodiscard]] bool empty() const {
    for (std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }

  [[nodiscard]] bool full() const {
    if (edge_count_ == 0) return true;
    const std::size_t last = words_.size() - 1;
    for (std::size_t i = 0; i < last; ++i) {
      if (words_[i] != ~0ULL) return false;
    }
    const std::uint32_t tail_bits = edge_count_ - static_cast<std::uint32_t>(last) * 64;
    const std::uint64_t tail_mask =
        tail_bits == 64 ? ~0ULL : (1ULL << tail_bits) - 1;
    return words_[last] == tail_mask;
  }

  /// Edges present in this set, ascending.
  [[nodiscard]] std::vector<EdgeId> to_vector() const {
    std::vector<EdgeId> out;
    out.reserve(size());
    for (EdgeId e = 0; e < edge_count_; ++e) {
      if (contains(e)) out.push_back(e);
    }
    return out;
  }

  /// Set union / intersection / difference (operands must be same size).
  EdgeSet& operator|=(const EdgeSet& o);
  EdgeSet& operator&=(const EdgeSet& o);
  EdgeSet& operator-=(const EdgeSet& o);

  friend EdgeSet operator|(EdgeSet a, const EdgeSet& b) { return a |= b; }
  friend EdgeSet operator&(EdgeSet a, const EdgeSet& b) { return a &= b; }
  friend EdgeSet operator-(EdgeSet a, const EdgeSet& b) { return a -= b; }

  friend bool operator==(const EdgeSet&, const EdgeSet&) = default;

  /// "{0, 2, 5}" — for traces and test failure messages.
  [[nodiscard]] std::string to_string() const;

 private:
  std::uint32_t edge_count_ = 0;
  std::vector<std::uint64_t> words_;
};

// ---------------------------------------------------------------------------
// Raw word-row helpers — the EdgeSet bit layout applied to rows of an
// engine-owned contiguous plane (BatchEngine keeps one edge-word row per
// replica; schedules fill rows in place via EdgeSchedule::edges_into_words).

/// Words per row for `edge_count` edges (the words() layout).
[[nodiscard]] constexpr std::uint32_t edge_word_count(
    std::uint32_t edge_count) {
  return (edge_count + 63) / 64;
}

/// Make every edge present in a raw word row (tail bits cleared).
inline void fill_edge_words(std::uint64_t* words, std::uint32_t edge_count) {
  const std::uint32_t count = edge_word_count(edge_count);
  if (count == 0) return;
  for (std::uint32_t i = 0; i + 1 < count; ++i) words[i] = ~0ULL;
  const std::uint32_t tail_bits = edge_count - (count - 1) * 64;
  words[count - 1] = tail_bits == 64 ? ~0ULL : (1ULL << tail_bits) - 1;
}

}  // namespace pef

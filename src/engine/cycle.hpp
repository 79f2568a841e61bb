// Cycle detection for deterministic executions, and the exact-stat
// fast-forward both engines share.
//
// A run whose every component is deterministic and finite-state (robot
// poses + kernel memory, activation phase, edge-schedule phase) must enter
// a cycle; once one global state recurs, the whole execution repeats with
// that period forever.  The engines exploit this: they fingerprint the
// packed state at environment-aligned rounds with a cheap 64-bit hash
// (Brent's algorithm keeps exactly one anchor snapshot), verify every hash
// hit by exact state comparison — a collision is counted and skipped, never
// silently trusted — and then extrapolate all reported statistics over the
// remaining whole periods in closed form, replaying only the final partial
// period so the result is bit-identical to the full run.
//
// "Environment-aligned" means rounds t with t >= env_start and
// (t - env_start) % env_period == 0, where env_period is the lcm of the
// edge schedule's recurrence period (ScheduleRecurrence) and the
// activation's period (FSYNC and full activation: 1; round-robin: its cycle
// length).  Sampling on that lattice makes the environment a pure function
// of the sampled state, so state equality really implies a cycle.
//
// CycleTracker is the whole machine for one run (Engine) or one lane
// (BatchEngine).  An engine supplies only how it reads its own state — it
// packs its words through StateWords and hands over its stats and visit
// counts — and decides when a computed skip is applied.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "dynamic_graph/schedule.hpp"
#include "engine/activation.hpp"
#include "robot/view.hpp"

namespace pef {

/// Engine-level fast-forward knobs.  `hash_mask` narrows the fingerprint —
/// production uses the full 64 bits; tests mask it down to force hash
/// collisions and exercise the exact-verify path.
struct FastForwardOptions {
  bool enabled = false;
  std::uint64_t hash_mask = ~std::uint64_t{0};
};

/// Environment periods above this are not worth detecting: the detector
/// would sample too sparsely to pay off within any realistic horizon.
inline constexpr Time kMaxEnvPeriod = Time{1} << 20;

/// FNV-1a over a stream of 64-bit words — cheap, stateless, good enough as
/// a first-pass filter (every hit is exact-verified anyway).
struct StateHash {
  std::uint64_t value = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    value ^= word;
    value *= 0x100000001b3ULL;
  }
};

/// Brent's cycle finder over an externally packed state stream, holding one
/// anchor snapshot.  Feed it environment-aligned samples in order; it
/// reports the cycle length (in samples) as soon as the current sample
/// exactly equals the anchor.
class BrentDetector {
 public:
  explicit BrentDetector(std::uint64_t hash_mask = ~std::uint64_t{0})
      : hash_mask_(hash_mask) {}

  /// Observe the next sample.  Returns the cycle length in SAMPLES (> 0)
  /// when `packed` exactly matches the anchor snapshot; 0 otherwise.
  Time observe(const std::vector<std::uint64_t>& packed,
               std::uint64_t hash) {
    hash &= hash_mask_;
    if (!have_anchor_) {
      set_anchor(packed, hash);
      return 0;
    }
    ++lam_;
    if (hash == anchor_hash_) {
      if (packed == anchor_) return lam_;
      ++collisions_;
    }
    if (lam_ == power_) {
      // Re-anchor at powers of two: guarantees detection once the anchor
      // lands inside the cycle, with O(1) snapshots alive at a time.
      power_ *= 2;
      lam_ = 0;
      set_anchor(packed, hash);
    }
    return 0;
  }

  /// Hash hits whose exact comparison failed (forced in tests by masking).
  [[nodiscard]] std::uint64_t collisions() const { return collisions_; }

 private:
  void set_anchor(const std::vector<std::uint64_t>& packed,
                  std::uint64_t hash) {
    anchor_ = packed;
    anchor_hash_ = hash;
    have_anchor_ = true;
  }

  std::uint64_t hash_mask_;
  bool have_anchor_ = false;
  Time lam_ = 0;
  Time power_ = 1;
  std::uint64_t anchor_hash_ = 0;
  std::vector<std::uint64_t> anchor_;
  std::uint64_t collisions_ = 0;
};

/// The packed-state word layout, written once for both engines.  Per robot,
/// in index order: a pose word (node << 32 | dir << 1 | right_cw), then its
/// kernel memory (counter, has_moved, and for random-walk the four Xoshiro
/// words).  ASYNC runs then append one word per robot holding its phase
/// machine and pending Look view (phase << 3 | ahead << 2 | behind << 1 |
/// multiplicity).  Views of robots past their Compute are
/// stale-but-deterministic, so including them only tightens the equality
/// test (false negatives delay detection; never wrong).
struct StateWords {
  std::vector<std::uint64_t>& out;

  /// `rng` is null unless the kernel is random-walk, whose stream is robot
  /// memory.
  void robot(NodeId node, std::uint8_t dir, std::uint8_t right_cw,
             std::uint64_t counter, std::uint8_t has_moved,
             const Xoshiro256* rng) const {
    out.push_back((static_cast<std::uint64_t>(node) << 32) |
                  (static_cast<std::uint64_t>(dir) << 1) | right_cw);
    out.push_back(counter);
    out.push_back(has_moved);
    if (rng != nullptr) {
      for (const std::uint64_t word : rng->state()) out.push_back(word);
    }
  }

  void phase(Phase phase, const View& view) const {
    out.push_back((static_cast<std::uint64_t>(phase) << 3) |
                  (static_cast<std::uint64_t>(view.exists_edge_ahead) << 2) |
                  (static_cast<std::uint64_t>(view.exists_edge_behind) << 1) |
                  static_cast<std::uint64_t>(view.other_robots_on_node));
  }
};

/// Detection, measurement and skip arithmetic for one run or lane:
///
///   search  — the Brent detector samples the packed state on the lattice;
///   measure — a cycle of `period` rounds is verified at t2; the run goes
///             live for ONE more period.  By t3 = t2 + period every
///             steady-state inter-visit gap has closed, and the stat deltas
///             over (t2, t3] are the exact per-period increments (they do
///             not depend on where in the cycle the window starts);
///   armed   — the deltas are ready; the engine takes the skip when it
///             suits it (Engine at once, BatchEngine at an epoch boundary);
///   done    — applied, or abandoned because two periods no longer fit.
///
/// Stats are read and extrapolated through the EngineStats field names
/// (`total_moves`, `tower_rounds`, `tower_formations`) and per-node visit
/// counts through an engine-supplied `count_at(u)`, so each engine keeps
/// its own layout.  Sampling allocates nothing once the scratch is warm.
class CycleTracker {
 public:
  /// Ineligible: never due, zero telemetry.
  CycleTracker() = default;

  /// The eligibility rule.  A run is tracked only when its future is a
  /// pure function of its packed state: fast-forward on, no trace (a trace
  /// must record each round), an oblivious `schedule` (adaptive adversaries
  /// pass null) with a known recurrence, and a deterministic activation —
  /// full (FSYNC's) or round-robin over `robots`.  Bernoulli activation
  /// consumes an RNG stream that never cycles.
  CycleTracker(const FastForwardOptions& options, bool tracing,
               const EdgeSchedule* schedule, ActivationKind activation,
               std::uint32_t robots, std::uint32_t nodes)
      : detector_(options.hash_mask), nodes_(nodes) {
    if (!options.enabled || tracing || schedule == nullptr) return;
    Time activation_period = 1;
    if (activation == ActivationKind::kRoundRobin) {
      activation_period = robots;
    } else if (activation != ActivationKind::kFull) {
      return;
    }
    const ScheduleRecurrence recurrence = schedule->recurrence();
    if (recurrence.period == 0) return;
    const Time env_period =
        combine_recurrence_periods(recurrence.period, activation_period);
    if (env_period == 0 || env_period > kMaxEnvPeriod) return;
    env_period_ = env_period;
    env_start_ = recurrence.start;
    stage_ = Stage::kSearch;
  }

  [[nodiscard]] bool eligible() const { return stage_ != Stage::kOff; }
  [[nodiscard]] bool searching() const { return stage_ == Stage::kSearch; }
  [[nodiscard]] bool armed() const { return stage_ == Stage::kArmed; }

  /// True when boundary `t` needs observe(): a search sample on the
  /// lattice, or the close of the measurement window.
  [[nodiscard]] bool due(Time t) const {
    if (stage_ == Stage::kSearch) {
      return t >= env_start_ && (t - env_start_) % env_period_ == 0;
    }
    return stage_ == Stage::kMeasure && t == measure_end_;
  }

  /// The cleared pack scratch of a search sample: fill it, then observe().
  [[nodiscard]] StateWords sample_words() {
    packed_.clear();
    return StateWords{packed_};
  }

  /// Advance the machine at due boundary `t` of a run that ends at
  /// `horizon`.  Searching, the sample packed through sample_words() goes
  /// to the detector; a verified cycle opens the measurement window when
  /// the window AND one whole skipped period still fit before `horizon`.
  /// Measuring, the window closes.  Returns true when the tracker is armed.
  template <typename Stats, typename CountAt>
  bool observe(Time t, Time horizon, const Stats& stats,
               const CountAt& count_at) {
    if (stage_ == Stage::kSearch) {
      StateHash hash;
      for (const std::uint64_t word : packed_) hash.add(word);
      const Time samples = detector_.observe(packed_, hash.value);
      if (samples == 0) return false;
      period_ = samples * env_period_;
      if (horizon - t < 2 * period_) {
        stage_ = Stage::kDone;
        return false;
      }
      measure_end_ = t + period_;
      snap_ = counters_of(stats);
      counts_.resize(nodes_);
      for (NodeId u = 0; u < nodes_; ++u) counts_[u] = count_at(u);
      stage_ = Stage::kMeasure;
      return false;
    }
    // The window closed: counts_ flips from snapshots to per-period deltas.
    const Counters now = counters_of(stats);
    delta_.moves = now.moves - snap_.moves;
    delta_.tower_rounds = now.tower_rounds - snap_.tower_rounds;
    delta_.tower_formations = now.tower_formations - snap_.tower_formations;
    for (NodeId u = 0; u < nodes_; ++u) {
      counts_[u] = count_at(u) - counts_[u];
    }
    stage_ = Stage::kArmed;
    return true;
  }

  /// Armed -> done: the whole periods that fit between `now` (an in-cycle
  /// time at or after the window's close) and `horizon`.  Records the
  /// skipped span and returns the repetition count (0 = nothing to skip).
  Time take_skip(Time now, Time horizon) {
    stage_ = Stage::kDone;
    const Time reps = (horizon - now) / period_;
    skipped_ = period_ * reps;
    return reps;
  }

  /// Add `reps` periods' worth of moves and tower counters to `stats`.
  template <typename Stats>
  void extrapolate(Time reps, Stats& stats) const {
    stats.total_moves += delta_.moves * reps;
    stats.tower_rounds += delta_.tower_rounds * reps;
    stats.tower_formations += delta_.tower_formations * reps;
  }

  /// fn(u, per-period visits) for every node the cycle visits.  Their true
  /// last visit sits `skipped()` after the one the engine recorded; nodes
  /// last seen before the cycle keep their (already true) stamp.
  template <typename Fn>
  void for_each_cycle_node(const Fn& fn) const {
    for (NodeId u = 0; u < nodes_; ++u) {
      if (counts_[u] != 0) fn(u, counts_[u]);
    }
  }

  /// Telemetry: rounds covered by extrapolation rather than execution; the
  /// verified period (0 unless a skip was taken); detector collisions.
  [[nodiscard]] Time skipped() const { return skipped_; }
  [[nodiscard]] Time detected_period() const {
    return skipped_ > 0 ? period_ : Time{0};
  }
  [[nodiscard]] std::uint64_t collisions() const {
    return detector_.collisions();
  }

 private:
  enum class Stage : std::uint8_t { kOff, kSearch, kMeasure, kArmed, kDone };
  struct Counters {
    std::uint64_t moves = 0;
    Time tower_rounds = 0;
    std::uint64_t tower_formations = 0;
  };
  template <typename Stats>
  static Counters counters_of(const Stats& stats) {
    return {stats.total_moves, stats.tower_rounds, stats.tower_formations};
  }

  Stage stage_ = Stage::kOff;
  Time env_period_ = 1;
  Time env_start_ = 0;
  BrentDetector detector_;
  std::vector<std::uint64_t> packed_;  // pack scratch, reused per sample
  std::uint32_t nodes_ = 0;
  Time period_ = 0;       // verified cycle length in rounds
  Time measure_end_ = 0;  // boundary at which the delta window closes
  Counters snap_;
  Counters delta_;
  // Per-node visit counts at the window's start, then per-period deltas.
  std::vector<std::uint64_t> counts_;
  Time skipped_ = 0;
};

}  // namespace pef

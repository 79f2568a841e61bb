// Deterministic seeded randomness.
//
// Every stochastic component (Bernoulli edge schedules, random-walk baseline,
// random placements) draws from an explicitly seeded generator so that every
// experiment row in EXPERIMENTS.md is exactly reproducible.  We provide
// SplitMix64 (for seed derivation) and xoshiro256** (for streams), both
// public-domain algorithms by Blackman & Vigna.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

namespace pef {

/// SplitMix64's state increment (the golden-ratio "gamma").
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64's output finalizer: the bijective mix applied to each
/// incremented state.  Shared by SplitMix64::next and by kernels that
/// evaluate SplitMix64 outputs directly, without a generator object.  T is
/// std::uint64_t or a vector of them (isa.hpp), one state per lane.
template <typename T>
[[nodiscard]] constexpr T splitmix64_finalize(T z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// SplitMix64: used to expand a single 64-bit seed into independent
/// sub-seeds (one per edge, per robot, per trial...).
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    return splitmix64_finalize(state_ += kSplitMix64Gamma);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: the workhorse stream generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() { return next(); }

  /// A generator resumed from state() words.
  explicit Xoshiro256(const std::array<std::uint64_t, 4>& state)
      : state_(state) {}

  std::uint64_t next() {
    return step(state_[0], state_[1], state_[2], state_[3]);
  }

  /// One xoshiro256** step on the state words s0..s3, returning its
  /// output: rotl(s1 * 5, 7) * 9, the multiplies as shift-and-add.  T is
  /// std::uint64_t or a vector of them, one generator per lane.
  template <typename T>
  static constexpr T step(T& s0, T& s1, T& s2, T& s3) {
    const T x = s1 + (s1 << 2);
    const T r = (x << 7) | (x >> 57);
    const T result = r + (r << 3);
    const T t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = (s3 << 45) | (s3 >> 19);
    return result;
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability `p`.
  bool next_bool(double p) { return next_double() < p; }

  /// Uniform integer in [0, bound) using Lemire's rejection-free-ish method.
  std::uint64_t next_below(std::uint64_t bound);

  /// Raw generator state, exposed so deterministic-replay layers (cycle
  /// detection) can fingerprint and compare streams exactly.
  [[nodiscard]] const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

 private:
  std::array<std::uint64_t, 4> state_{};
};

/// The integer form of Xoshiro256::next_bool(p): for p in [0, 1],
/// next_bool(p) == ((next() >> 11) < bernoulli_threshold(p)).  next_double()
/// is x * 2^-53 for an integer x < 2^53; scaling both sides of `< p` by
/// 2^53 is exact, and x < p * 2^53 iff x < ceil(p * 2^53).
[[nodiscard]] inline std::uint64_t bernoulli_threshold(double p) {
  return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

/// Xoshiro256(seed).next() without building the generator.  The first
/// xoshiro256** output reads only state[1], which is the seed's second
/// SplitMix64 output.  T is std::uint64_t or a vector of them.
template <typename T>
[[nodiscard]] constexpr T xoshiro256_first_output(T seed) {
  const T s1 = splitmix64_finalize(seed + 2 * kSplitMix64Gamma);
  const T x = s1 + (s1 << 2);
  const T r = (x << 7) | (x >> 57);
  return r + (r << 3);
}

/// Xoshiro256(seed).next_below(bound) for one bound and many seeds.
/// next_below rejects outputs below 2^64 mod bound; this takes that
/// remainder once, at construction, and tests the seed's first output
/// (xoshiro256_first_output) without building the generator.  Only a
/// rejected first output builds it and continues next_below's loop from
/// its second output.
class SeededBelow {
 public:
  explicit constexpr SeededBelow(std::uint64_t bound)
      : bound_(bound), reject_(bound == 0 ? 0 : (~bound + 1) % bound) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t seed) const {
    if (bound_ == 0) return 0;
    const std::uint64_t first = xoshiro256_first_output(seed);
    if (first >= reject_) return first % bound_;
    Xoshiro256 rng(seed);
    rng.next();
    return rng.next_below(bound_);
  }

 private:
  std::uint64_t bound_;
  std::uint64_t reject_;  // 2^64 mod bound_
};

/// The multiplier derive_seed applies to its `b` coordinate.
inline constexpr std::uint64_t kDeriveSeedB = 0xbf58476d1ce4e5b9ULL;

/// derive_seed's first mix, over the master seed alone.  It splits
/// derive_seed_key as
///   derive_seed_key(master, a) ==
///       derive_seed_key_from_prefix(derive_seed_prefix(master), a),
/// so a caller keying many `a` under one master mixes the master once.
[[nodiscard]] constexpr std::uint64_t derive_seed_prefix(
    std::uint64_t master) {
  return splitmix64_finalize(master + kSplitMix64Gamma);
}

[[nodiscard]] constexpr std::uint64_t derive_seed_key_from_prefix(
    std::uint64_t prefix, std::uint64_t a) {
  return splitmix64_finalize((prefix ^ (a * kSplitMix64Gamma)) +
                             kSplitMix64Gamma);
}

/// derive_seed's prefix over (master, a).  It splits derive_seed as
///   derive_seed(master, a, b, c) ==
///       derive_seed_from_key(derive_seed_key(master, a), b, c),
/// so a caller drawing many (b, c) under one (master, a) computes the key
/// once.
[[nodiscard]] constexpr std::uint64_t derive_seed_key(std::uint64_t master,
                                                      std::uint64_t a) {
  return derive_seed_key_from_prefix(derive_seed_prefix(master), a);
}

[[nodiscard]] constexpr std::uint64_t derive_seed_from_key(
    std::uint64_t key, std::uint64_t b, std::uint64_t c = 0) {
  return splitmix64_finalize((key ^ (b * kDeriveSeedB)) + kSplitMix64Gamma) ^
         (c * 0x94d049bb133111ebULL);
}

/// Derive a sub-seed for a named stream: deterministic mixing of a master
/// seed with up to three stream coordinates (e.g. trial, edge, robot).
[[nodiscard]] constexpr std::uint64_t derive_seed(std::uint64_t master,
                                                  std::uint64_t a,
                                                  std::uint64_t b = 0,
                                                  std::uint64_t c = 0) {
  return derive_seed_from_key(derive_seed_key(master, a), b, c);
}

}  // namespace pef

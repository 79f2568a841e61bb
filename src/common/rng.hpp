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
/// evaluate SplitMix64 outputs directly, without a generator object.
[[nodiscard]] constexpr std::uint64_t splitmix64_finalize(std::uint64_t z) {
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

  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
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
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

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
/// SplitMix64 output.
[[nodiscard]] constexpr std::uint64_t xoshiro256_first_output(
    std::uint64_t seed) {
  const std::uint64_t s1 = splitmix64_finalize(seed + 2 * kSplitMix64Gamma);
  const std::uint64_t x = s1 * 5;
  return ((x << 7) | (x >> 57)) * 9;
}

/// The multiplier derive_seed applies to its `b` coordinate.
inline constexpr std::uint64_t kDeriveSeedB = 0xbf58476d1ce4e5b9ULL;

/// derive_seed's prefix over (master, a).  It splits derive_seed as
///   derive_seed(master, a, b, c) ==
///       derive_seed_from_key(derive_seed_key(master, a), b, c),
/// so a caller drawing many (b, c) under one (master, a) computes the key
/// once.
[[nodiscard]] constexpr std::uint64_t derive_seed_key(std::uint64_t master,
                                                      std::uint64_t a) {
  const std::uint64_t s =
      splitmix64_finalize(master + kSplitMix64Gamma) ^ (a * kSplitMix64Gamma);
  return splitmix64_finalize(s + kSplitMix64Gamma);
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

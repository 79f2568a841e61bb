// Unit tests for the deterministic RNG utilities.
#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <set>

namespace pef {
namespace {

TEST(RngTest, SplitMixIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, XoshiroIsDeterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Xoshiro256 rng(5);
  int heads = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.next_bool(0.5)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.01);
}

TEST(RngTest, NextBelowRespectsBound) {
  Xoshiro256 rng(6);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversRange) {
  Xoshiro256 rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, DeriveSeedSeparatesStreams) {
  // Different coordinates must give different sub-seeds.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t a = 0; a < 10; ++a) {
    for (std::uint64_t b = 0; b < 10; ++b) {
      seeds.insert(derive_seed(123, a, b));
    }
  }
  EXPECT_EQ(seeds.size(), 100u);
}

TEST(RngTest, DeriveSeedDeterministic) {
  EXPECT_EQ(derive_seed(9, 1, 2, 3), derive_seed(9, 1, 2, 3));
  EXPECT_NE(derive_seed(9, 1, 2, 3), derive_seed(10, 1, 2, 3));
}

// Every seeded stream in the repo, and so every golden baseline, hangs off
// these values: SplitMix64's reference vector, and derive_seed plus the
// first two Xoshiro256 outputs at corner coordinates.
TEST(RngTest, StreamsMatchPinnedValues) {
  SplitMix64 sm(1234567);
  EXPECT_EQ(sm.next(), 6457827717110365317ULL);
  EXPECT_EQ(sm.next(), 3203168211198807973ULL);
  EXPECT_EQ(sm.next(), 9817491932198370423ULL);

  struct Case {
    std::uint64_t master, a, b, c, seed, first, second;
  };
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  const Case cases[] = {
      {0, 0, 0, 0, 0x238275bc38fcbe91ULL, 0x8a21cd34a214a917ULL,
       0x9c507e12243e64d0ULL},
      {9, 1, 2, 3, 0x5a76a0d90fea5b7cULL, 0x9fab744b399a3074ULL,
       0x9a1378edab34ff10ULL},
      {kMax, 63, std::uint64_t{1} << 63, 0, 0x8960cba9f1111a4aULL,
       0x090d90aa794d4ad5ULL, 0x465fdc62676e4faeULL},
      {123456789, 1024, kMax, 7, 0x0481fb2caef644d4ULL, 0xe4cefab473d33e47ULL,
       0x2277bd10d87d8a4cULL},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(derive_seed(c.master, c.a, c.b, c.c), c.seed);
    Xoshiro256 rng(c.seed);
    EXPECT_EQ(xoshiro256_first_output(c.seed), c.first);
    EXPECT_EQ(rng.next(), c.first);
    EXPECT_EQ(rng.next(), c.second);
  }
}

TEST(RngTest, SeededBelowIsNextBelowOfTheSeed) {
  // 10^5 seeds per bound.  At 2^63 + 1 next_below rejects outputs below
  // 2^63 - 1, about half of them, so the generator path runs too.
  constexpr std::uint64_t kSeeds = 100000;
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  for (const std::uint64_t bound :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{65}, std::uint64_t{1025}, std::uint64_t{1} << 32,
        kHalf + 1}) {
    const SeededBelow below(bound);
    const std::uint64_t reject = (~bound + 1) % bound;
    std::uint64_t rejected = 0;
    SplitMix64 seeds(bound);
    for (std::uint64_t i = 0; i < kSeeds; ++i) {
      const std::uint64_t seed = seeds.next();
      Xoshiro256 rng(seed);
      ASSERT_EQ(below(seed), rng.next_below(bound))
          << "bound " << bound << " seed " << seed;
      rejected += xoshiro256_first_output(seed) < reject ? 1 : 0;
    }
    if (bound == kHalf + 1) {
      EXPECT_GT(rejected, kSeeds * 2 / 5);
      EXPECT_LT(rejected, kSeeds * 3 / 5);
    }
  }
}

TEST(RngTest, BernoulliThresholdIsNextBool) {
  // next_bool(p) tests x * 2^-53 < p for x = next() >> 11.  Check the
  // integer form on both sides of each threshold, where a floor-for-ceil
  // slip would show (random draws hit a given x with probability 2^-53).
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
  for (const double p : {0.0, 5e-324, 1e-17, 0x1.0p-53, 0.1, 0.3, 0.5, 0.7,
                         1.0 - 0x1.0p-53, 1.0}) {
    const std::uint64_t threshold = bernoulli_threshold(p);
    for (const std::uint64_t x : {std::uint64_t{0}, std::uint64_t{1},
                                  threshold - 1, threshold, threshold + 1,
                                  kTop}) {
      if (x > kTop) continue;
      const bool by_double = static_cast<double>(x) * 0x1.0p-53 < p;
      EXPECT_EQ(x < threshold, by_double) << "p=" << p << " x=" << x;
    }
  }
  EXPECT_EQ(bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(bernoulli_threshold(1.0), kTop + 1);
}

}  // namespace
}  // namespace pef

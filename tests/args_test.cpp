// Tests for the command-line argument parser.
#include "common/args.hpp"

#include <gtest/gtest.h>

namespace pef {
namespace {

ArgParser make(std::initializer_list<const char*> tokens) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), tokens.begin(), tokens.end());
  return ArgParser(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, SpaceSeparatedValues) {
  auto args = make({"--nodes", "12", "--algorithm", "pef3+"});
  EXPECT_EQ(args.get_u32("--nodes", 0), 12u);
  EXPECT_EQ(args.get_string("--algorithm", ""), "pef3+");
  EXPECT_TRUE(args.unused().empty());
}

TEST(ArgsTest, EqualsSeparatedValues) {
  auto args = make({"--nodes=7", "--p=0.25"});
  EXPECT_EQ(args.get_u32("--nodes", 0), 7u);
  EXPECT_DOUBLE_EQ(args.get_double("--p", 0), 0.25);
}

TEST(ArgsTest, DefaultsWhenAbsent) {
  auto args = make({});
  EXPECT_EQ(args.get_u32("--nodes", 10), 10u);
  EXPECT_EQ(args.get_string("--algorithm", "pef3+"), "pef3+");
  EXPECT_DOUBLE_EQ(args.get_double("--p", 0.5), 0.5);
  EXPECT_FALSE(args.has("--render"));
}

TEST(ArgsTest, BooleanFlags) {
  auto args = make({"--render", "--nodes", "5"});
  EXPECT_TRUE(args.has("--render"));
  EXPECT_EQ(args.get_u32("--nodes", 0), 5u);
}

TEST(ArgsTest, UnusedFlagsReported) {
  auto args = make({"--nodes", "5", "--typo-flag", "--other=1"});
  EXPECT_EQ(args.get_u32("--nodes", 0), 5u);
  const auto unused = args.unused();
  ASSERT_EQ(unused.size(), 2u);
  EXPECT_EQ(unused[0], "--typo-flag");
  EXPECT_EQ(unused[1], "--other");
}

TEST(ArgsTest, U64RoundTrip) {
  auto args = make({"--horizon", "123456789012", "--max",
                    "18446744073709551615", "--nodes", "4294967295", "--seed",
                    "0"});
  EXPECT_EQ(args.get_u64("--horizon", 0), 123456789012ull);
  // Each type's largest value and zero are accepted.
  EXPECT_EQ(args.get_u64("--max", 0), 18446744073709551615ull);
  EXPECT_EQ(args.get_u32("--nodes", 0), 4294967295u);
  EXPECT_EQ(args.get_u64("--seed", 7), 0u);
}

TEST(ArgsDeathTest, RejectsPositionalArguments) {
  EXPECT_DEATH(
      { auto a = make({"positional"}); (void)a; },
      "unexpected positional");
}

TEST(ArgsDeathTest, RejectsSignedAndNonDecimalIntegers) {
  // strtoull would negate "-4294967286" into 10 (mod 2^32) and skip the
  // blank of " 5"; every such value is refused, naming the flag.
  for (const char* value : {"-4294967286", "-1", "+5", " 5", "0x10", "5k"}) {
    EXPECT_EXIT(
        {
          auto args = make({"--nodes", value});
          (void)args.get_u32("--nodes", 0);
        },
        ::testing::ExitedWithCode(2), "flag --nodes: .* is not an unsigned")
        << value;
  }
}

TEST(ArgsDeathTest, RejectsIntegersOutOfRange) {
  EXPECT_EXIT(
      {
        auto args = make({"--horizon", "99999999999999999999999"});
        (void)args.get_u64("--horizon", 0);
      },
      ::testing::ExitedWithCode(2), "flag --horizon: .* is out of range");
  // 2^32 + 10 does not fit a u32 flag (a cast would make it 10).
  EXPECT_EXIT(
      {
        auto args = make({"--nodes=4294967306"});
        (void)args.get_u32("--nodes", 0);
      },
      ::testing::ExitedWithCode(2), "flag --nodes: .* is out of range");
}

TEST(ArgsDeathTest, CheckUnusedExitsOnTypos) {
  EXPECT_EXIT(
      {
        auto args = make({"--nodes", "5", "--typo-flag"});
        (void)args.get_u32("--nodes", 0);
        args.check_unused();
      },
      ::testing::ExitedWithCode(2), "unknown flag --typo-flag");
}

TEST(ArgsDeathTest, NamesARepeatedFlag) {
  // Both forms, and a presence-only flag: the second occurrence is named
  // as a repeat, not reported as an unknown flag.
  EXPECT_EXIT(
      {
        auto args = make({"--horizon", "0", "--horizon", "50"});
        (void)args.get_u64("--horizon", 0);
      },
      ::testing::ExitedWithCode(2), "flag --horizon given more than once");
  EXPECT_EXIT(
      {
        auto args = make({"--horizon=0", "--horizon", "50"});
        (void)args.get_u64("--horizon", 0);
      },
      ::testing::ExitedWithCode(2), "flag --horizon given more than once");
  EXPECT_EXIT(
      {
        auto args = make({"--batch", "--batch"});
        (void)args.has("--batch");
      },
      ::testing::ExitedWithCode(2), "flag --batch given more than once");
}

TEST(ArgsTest, CheckUnusedPassesWhenEverythingConsumed) {
  auto args = make({"--nodes", "5"});
  EXPECT_EQ(args.get_u32("--nodes", 0), 5u);
  args.check_unused();  // must not exit
}

}  // namespace
}  // namespace pef

#include "../tools/flags.h"

#include <gtest/gtest.h>

namespace slim::tools {
namespace {

Flags Make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()),
               const_cast<char**>(args.data()));
}

TEST(Flags, ParsesEqualsForm) {
  const Flags f = Make({"--a=x", "--n=42", "--p=0.5"});
  EXPECT_EQ(f.GetString("a", ""), "x");
  EXPECT_EQ(f.GetInt("n", 0), 42);
  EXPECT_DOUBLE_EQ(f.GetDouble("p", 0.0), 0.5);
}

TEST(Flags, ParsesSpaceForm) {
  const Flags f = Make({"--a", "hello", "--n", "7"});
  EXPECT_EQ(f.GetString("a", ""), "hello");
  EXPECT_EQ(f.GetInt("n", 0), 7);
}

TEST(Flags, BooleanFlagWithoutValue) {
  const Flags f = Make({"--verbose", "--out=x.csv"});
  EXPECT_TRUE(f.GetBool("verbose", false));
  EXPECT_TRUE(f.Has("verbose"));
  EXPECT_FALSE(f.GetBool("quiet", false));
}

TEST(Flags, BooleanValueSpellings) {
  EXPECT_TRUE(Make({"--x=true"}).GetBool("x", false));
  EXPECT_TRUE(Make({"--x=1"}).GetBool("x", false));
  EXPECT_TRUE(Make({"--x=yes"}).GetBool("x", false));
  EXPECT_FALSE(Make({"--x=no"}).GetBool("x", true));
}

TEST(Flags, DefaultsWhenAbsent) {
  const Flags f = Make({});
  EXPECT_EQ(f.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(f.GetInt("missing", -5), -5);
  EXPECT_DOUBLE_EQ(f.GetDouble("missing", 2.5), 2.5);
}

TEST(Flags, PositionalArgumentsCollected) {
  const Flags f = Make({"input.csv", "--n=1", "more.csv"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "input.csv");
  EXPECT_EQ(f.positional()[1], "more.csv");
}

TEST(Flags, LastDuplicateWins) {
  const Flags f = Make({"--n=1", "--n=2"});
  EXPECT_EQ(f.GetInt("n", 0), 2);
}

TEST(Flags, BadIntegerExitsWithError) {
  const Flags f = Make({"--n=abc"});
  EXPECT_EXIT((void)f.GetInt("n", 0), ::testing::ExitedWithCode(2),
              "expects an integer");
}

TEST(Flags, NegativeNumbersViaEqualsForm) {
  const Flags f = Make({"--n=-3", "--p=-1.5"});
  EXPECT_EQ(f.GetInt("n", 0), -3);
  EXPECT_DOUBLE_EQ(f.GetDouble("p", 0.0), -1.5);
}

TEST(LshFlags, DefaultsAreTheSharedOperatingPoint) {
  const LshConfig lsh = LshFlags(Make({}), true, 12);
  EXPECT_EQ(lsh.signature_spatial_level, 10);
  EXPECT_EQ(lsh.temporal_step_windows, 8);
  EXPECT_DOUBLE_EQ(lsh.similarity_threshold, 0.5);
  EXPECT_EQ(lsh.num_buckets, 4096u);
  EXPECT_EQ(LshFlags(Make({"--lsh_buckets=4294967296"}), true, 12).num_buckets,
            kMaxLshBuckets);
}

TEST(LshFlags, BadValuesAreUsageErrors) {
  const auto dies = [](const char* flag, const char* message) {
    EXPECT_EXIT((void)LshFlags(Make({flag}), true, 12),
                ::testing::ExitedWithCode(2), message)
        << flag;
  };
  dies("--lsh_buckets=-5", "--lsh_buckets");
  dies("--lsh_buckets=0", "--lsh_buckets");
  dies("--lsh_buckets=4294967297", "--lsh_buckets");
  dies("--lsh_step=0", "--lsh_step");
  dies("--lsh_step=-1", "--lsh_step");
  dies("--lsh_threshold=1.5", "--lsh_threshold");
  dies("--lsh_threshold=0", "--lsh_threshold");
  dies("--lsh_level=40", "--lsh_level");
  dies("--lsh_level=13", "must be in \\[0, 12\\]");
  dies("--lsh_level=-1", "--lsh_level");
  dies("--lsh_level=4294967306", "--lsh_level");  // 2^32 + 10 must not wrap
}

TEST(LshFlags, UncheckedWhenLshDoesNotRun) {
  // brute/grid ignore the LSH flags, so they are not checked.
  EXPECT_EQ(LshFlags(Make({"--lsh_level=40"}), false, 12)
                .signature_spatial_level,
            40);
}

}  // namespace
}  // namespace slim::tools

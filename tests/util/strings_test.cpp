#include "scada/util/strings.hpp"

#include <gtest/gtest.h>

#include "scada/util/error.hpp"

namespace scada::util {
namespace {

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim("hello"), "hello");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StringsTest, SplitOnWhitespace) {
  EXPECT_EQ(split("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split("  a\tb "), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split("").empty());
  EXPECT_TRUE(split("   ").empty());
}

TEST(StringsTest, SplitOnCustomDelims) {
  EXPECT_EQ(split("a,b;c", ",;"), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",,a,,", ","), (std::vector<std::string>{"a"}));
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"x"}, ","), "x");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringsTest, ToLower) {
  EXPECT_EQ(to_lower("HMAC-Sha256"), "hmac-sha256");
  EXPECT_EQ(to_lower(""), "");
}

TEST(StringsTest, ParseLongValid) {
  EXPECT_EQ(parse_long("42"), 42);
  EXPECT_EQ(parse_long(" -17 "), -17);
  EXPECT_EQ(parse_long("0"), 0);
}

TEST(StringsTest, ParseLongInvalidThrows) {
  EXPECT_THROW((void)parse_long("x"), ParseError);
  EXPECT_THROW((void)parse_long("12x"), ParseError);
  EXPECT_THROW((void)parse_long(""), ParseError);
  EXPECT_THROW((void)parse_long("1.5"), ParseError);
}

TEST(StringsTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(parse_double("-5.05"), -5.05);
  EXPECT_DOUBLE_EQ(parse_double(" 23.75 "), 23.75);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(StringsTest, ParseDoubleInvalidThrows) {
  EXPECT_THROW((void)parse_double("abc"), ParseError);
  EXPECT_THROW((void)parse_double("1.5z"), ParseError);
  EXPECT_THROW((void)parse_double(""), ParseError);
}

TEST(StringsTest, CliParsingAcceptsValidTokens) {
  EXPECT_EQ(cli_long("--n", "42"), 42);
  EXPECT_EQ(cli_long("--n", "-7"), -7);
  EXPECT_EQ(cli_long("--n", " 13 "), 13);  // surrounding whitespace tolerated
  EXPECT_DOUBLE_EQ(cli_double("--x", "2.5"), 2.5);
  EXPECT_DOUBLE_EQ(cli_double("--x", "-0.25"), -0.25);
  EXPECT_EQ(cli_long_in("--k", "5", 1, 10), 5);
  EXPECT_EQ(cli_long_in("--k", "1", 1, 10), 1);
  EXPECT_EQ(cli_long_in("--k", "10", 1, 10), 10);
}

// Death tests: the cli_* helpers exit(1) — the tools' usage-error code —
// instead of silently yielding 0 the way atoi did.
TEST(StringsDeathTest, CliLongRejectsGarbage) {
  EXPECT_EXIT((void)cli_long("--passes", "abc"), ::testing::ExitedWithCode(1), "--passes abc");
  EXPECT_EXIT((void)cli_long("--passes", "12x"), ::testing::ExitedWithCode(1), "--passes 12x");
  EXPECT_EXIT((void)cli_long("--passes", ""), ::testing::ExitedWithCode(1), "--passes");
  EXPECT_EXIT((void)cli_long("--passes", nullptr), ::testing::ExitedWithCode(1),
              "missing value");
}

TEST(StringsDeathTest, CliDoubleRejectsGarbage) {
  EXPECT_EXIT((void)cli_double("--min-hit-rate", "fast"), ::testing::ExitedWithCode(1),
              "--min-hit-rate fast");
  EXPECT_EXIT((void)cli_double("--min-hit-rate", nullptr), ::testing::ExitedWithCode(1),
              "missing value");
}

TEST(StringsDeathTest, CliLongInRejectsOutOfRange) {
  EXPECT_EXIT((void)cli_long_in("--passes", "1001", 1, 1000), ::testing::ExitedWithCode(1),
              "out of range");
  EXPECT_EXIT((void)cli_long_in("--passes", "0", 1, 1000), ::testing::ExitedWithCode(1),
              "out of range");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("# comment", "#"));
  EXPECT_FALSE(starts_with("", "#"));
  EXPECT_TRUE(starts_with("abc", ""));
}

}  // namespace
}  // namespace scada::util

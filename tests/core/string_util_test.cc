#include "core/string_util.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace eafe {
namespace {

TEST(SplitTest, BasicAndEmptyFields) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t x \n"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("inner space kept"), "inner space kept");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(ParseDoubleTest, StrictParsing) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").ValueOrDie(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e3 ").ValueOrDie(), -1000.0);
  EXPECT_FALSE(ParseDouble("").ok());
  EXPECT_FALSE(ParseDouble("12x").ok());
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(ParseDoubleTest, UnderflowYieldsTheNearestDouble) {
  EXPECT_EQ(ParseDouble("4.9406564584124654e-324").ValueOrDie(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(ParseDouble("-1e-400").ValueOrDie(), 0.0);
  EXPECT_TRUE(std::signbit(ParseDouble("-1e-400").ValueOrDie()));
  EXPECT_FALSE(ParseDouble("1e400").ok());
  EXPECT_FALSE(ParseDouble("-1e400").ok());
}

TEST(ParseIntTest, StrictParsing) {
  EXPECT_EQ(ParseInt("42").ValueOrDie(), 42);
  EXPECT_EQ(ParseInt(" -7 ").ValueOrDie(), -7);
  EXPECT_FALSE(ParseInt("4.2").ok());
  EXPECT_FALSE(ParseInt("").ok());
  EXPECT_FALSE(ParseInt("9z").ok());
}

TEST(StartsWithTest, PrefixChecks) {
  EXPECT_TRUE(StartsWith("--flag", "--"));
  EXPECT_FALSE(StartsWith("-f", "--"));
  EXPECT_TRUE(StartsWith("abc", ""));
  EXPECT_FALSE(StartsWith("", "a"));
}

TEST(ToLowerTest, AsciiLowering) {
  EXPECT_EQ(ToLower("MiXeD 123"), "mixed 123");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

}  // namespace
}  // namespace eafe

#include "core/flags.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace eafe {
namespace {

/// Builds a mutable argv from string literals.
class ArgvBuilder {
 public:
  explicit ArgvBuilder(std::vector<std::string> args)
      : storage_(std::move(args)) {
    pointers_.push_back(const_cast<char*>("program"));
    for (std::string& s : storage_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> storage_;
  std::vector<char*> pointers_;
};

FlagParser MakeParser() {
  FlagParser parser;
  parser.AddString("name", "default", "a string flag")
      .AddInt("count", 5, "an int flag")
      .AddDouble("rate", 0.5, "a double flag")
      .AddBool("verbose", false, "a bool flag");
  return parser;
}

TEST(FlagParserTest, DefaultsApply) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(parser.GetString("name"), "default");
  EXPECT_EQ(parser.GetInt("count"), 5);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 0.5);
  EXPECT_FALSE(parser.GetBool("verbose"));
}

TEST(FlagParserTest, EqualsSyntax) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--name=hello", "--count=9", "--rate=0.25"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(parser.GetString("name"), "hello");
  EXPECT_EQ(parser.GetInt("count"), 9);
  EXPECT_DOUBLE_EQ(parser.GetDouble("rate"), 0.25);
}

TEST(FlagParserTest, SpaceSyntax) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--count", "12", "--name", "world"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(parser.GetInt("count"), 12);
  EXPECT_EQ(parser.GetString("name"), "world");
}

TEST(FlagParserTest, BareBooleanSetsTrue) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--verbose"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(parser.GetBool("verbose"));
}

TEST(FlagParserTest, BooleanExplicitValues) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--verbose=true"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_TRUE(parser.GetBool("verbose"));
  FlagParser parser2 = MakeParser();
  ArgvBuilder args2({"--verbose=0"});
  ASSERT_TRUE(parser2.Parse(args2.argc(), args2.argv()).ok());
  EXPECT_FALSE(parser2.GetBool("verbose"));
}

TEST(FlagParserTest, UnknownFlagFailsLoudly) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--no-such-flag=1"});
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagParserTest, BadIntRejected) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--count=abc"});
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv()).ok());
}

/// Parses `args` against a count flag with a minimum of 0 and a port
/// flag in [0, 65535], the two bounded kinds the tools declare.
Status ParseBounded(std::vector<std::string> args, FlagParser* parser) {
  parser->AddInt("epochs", 10, "a count", 0)
      .AddInt("port", 0, "a port", 0, 65535);
  ArgvBuilder argv(std::move(args));
  return parser->Parse(argv.argc(), argv.argv());
}

TEST(FlagParserTest, IntBelowMinimumRejectedNamingFlag) {
  for (const std::string arg : {"--epochs=-1", "--port=-1"}) {
    FlagParser parser;
    const Status status = ParseBounded({arg}, &parser);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find(arg.substr(0, arg.find('='))),
              std::string::npos)
        << status.message();
  }
}

TEST(FlagParserTest, IntAboveMaximumRejectedNamingFlag) {
  for (const std::string arg : {"--port=65536", "--port=70000"}) {
    FlagParser parser;
    const Status status = ParseBounded({arg}, &parser);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("--port"), std::string::npos)
        << status.message();
  }
}

TEST(FlagParserTest, IntBoundsAreInclusive) {
  FlagParser low;
  ASSERT_TRUE(ParseBounded({"--epochs=0", "--port=0"}, &low).ok());
  EXPECT_EQ(low.GetInt("epochs"), 0);
  EXPECT_EQ(low.GetInt("port"), 0);
  FlagParser high;
  ASSERT_TRUE(ParseBounded({"--port", "65535"}, &high).ok());
  EXPECT_EQ(high.GetInt("port"), 65535);
}

// A pool needs at least one worker: 0 and negative counts are errors,
// not a silent serial run.
TEST(FlagParserTest, ThreadsBelowOneRejected) {
  for (const std::string arg : {"--threads=0", "--threads=-4"}) {
    FlagParser parser;
    parser.AddThreads();
    ArgvBuilder args({arg});
    const Status status = parser.Parse(args.argc(), args.argv());
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << arg;
    EXPECT_NE(status.message().find("flag --threads must be >= 1"),
              std::string::npos)
        << status.message();
  }
  FlagParser parser;
  parser.AddThreads();
  ArgvBuilder args({"--threads", "1"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(parser.GetInt("threads"), 1);
}

TEST(FlagParserTest, UnboundedIntTakesEveryInt64) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--count=-9223372036854775808"});
  ASSERT_TRUE(parser.Parse(args.argc(), args.argv()).ok());
  EXPECT_EQ(parser.GetInt("count"), std::numeric_limits<int64_t>::min());
  ArgvBuilder max_args({"--count=9223372036854775807"});
  ASSERT_TRUE(parser.Parse(max_args.argc(), max_args.argv()).ok());
  EXPECT_EQ(parser.GetInt("count"), std::numeric_limits<int64_t>::max());
}

TEST(FlagParserTest, MissingValueRejected) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--count"});
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagParserTest, PositionalRejected) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"stray"});
  EXPECT_FALSE(parser.Parse(args.argc(), args.argv()).ok());
}

TEST(FlagParserTest, UsageListsFlags) {
  FlagParser parser = MakeParser();
  const std::string usage = parser.Usage("prog");
  EXPECT_NE(usage.find("--name"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("a double flag"), std::string::npos);
}

TEST(FlagParserTest, HelpReturnsNotFound) {
  FlagParser parser = MakeParser();
  ArgvBuilder args({"--help"});
  const Status status = parser.Parse(args.argc(), args.argv());
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace eafe

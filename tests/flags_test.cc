#include "util/flags.h"

#include <gtest/gtest.h>

namespace infoshield {
namespace {

FlagParser MakeParser() {
  FlagParser p;
  p.AddString("name", "default", "a string flag")
      .AddInt("count", 7, "an int flag")
      .AddDouble("ratio", 0.5, "a double flag")
      .AddBool("verbose", false, "a bool flag");
  return p;
}

TEST(FlagsTest, DefaultsApplyWithoutArgs) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(p.Parse(1, argv).ok());
  EXPECT_EQ(p.GetString("name"), "default");
  EXPECT_EQ(p.GetInt("count"), 7);
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio"), 0.5);
  EXPECT_FALSE(p.GetBool("verbose"));
}

TEST(FlagsTest, EqualsSyntax) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--name=x", "--count=42", "--ratio=1.25",
                        "--verbose=true"};
  ASSERT_TRUE(p.Parse(5, argv).ok());
  EXPECT_EQ(p.GetString("name"), "x");
  EXPECT_EQ(p.GetInt("count"), 42);
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio"), 1.25);
  EXPECT_TRUE(p.GetBool("verbose"));
}

TEST(FlagsTest, SpaceSyntax) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--name", "spaced", "--count", "-3"};
  ASSERT_TRUE(p.Parse(5, argv).ok());
  EXPECT_EQ(p.GetString("name"), "spaced");
  EXPECT_EQ(p.GetInt("count"), -3);
}

TEST(FlagsTest, BareBoolFlag) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(p.Parse(2, argv).ok());
  EXPECT_TRUE(p.GetBool("verbose"));
}

TEST(FlagsTest, PositionalArguments) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "one", "--count=1", "two"};
  ASSERT_TRUE(p.Parse(4, argv).ok());
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"one", "two"}));
}

TEST(FlagsTest, UnknownFlagFails) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--nope=1"};
  Status s = p.Parse(2, argv);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("nope"), std::string::npos);
}

TEST(FlagsTest, MalformedIntFails) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--count=abc"};
  EXPECT_FALSE(p.Parse(2, argv).ok());
  const char* argv2[] = {"prog", "--count=12x"};
  FlagParser p2 = MakeParser();
  EXPECT_FALSE(p2.Parse(2, argv2).ok());
}

TEST(FlagsTest, MalformedDoubleFails) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--ratio=fast"};
  EXPECT_FALSE(p.Parse(2, argv).ok());
}

TEST(FlagsTest, MalformedBoolFails) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_FALSE(p.Parse(2, argv).ok());
}

TEST(FlagsTest, MissingValueFails) {
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--count"};
  Status s = p.Parse(2, argv);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("missing a value"), std::string::npos);
}

TEST(FlagsTest, UsageListsFlagsAndDefaults) {
  FlagParser p = MakeParser();
  std::string usage = p.Usage("tool");
  EXPECT_NE(usage.find("usage: tool"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("default 7"), std::string::npos);
  EXPECT_NE(usage.find("a double flag"), std::string::npos);
}

TEST(FlagsTest, UsageShowsRegisteredDefaultsAfterParse) {
  // Parsed values must not leak into the defaults Usage prints (a
  // bare --verbose used to show up as "default true").
  FlagParser p = MakeParser();
  const char* argv[] = {"prog", "--name=x", "--count=0", "--ratio=9",
                        "--verbose"};
  ASSERT_TRUE(p.Parse(5, argv).ok());
  EXPECT_EQ(p.GetInt("count"), 0);
  const std::string usage = p.Usage("tool");
  EXPECT_NE(usage.find("(string, default \"default\")"), std::string::npos)
      << usage;
  EXPECT_NE(usage.find("(int, default 7)"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(double, default 0.5"), std::string::npos) << usage;
  EXPECT_NE(usage.find("(bool, default false)"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("default 0)"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("default true"), std::string::npos) << usage;
  EXPECT_EQ(usage.find("\"x\""), std::string::npos) << usage;
}

TEST(FlagsDeathTest, UnregisteredAccessDies) {
  FlagParser p = MakeParser();
  EXPECT_DEATH(p.GetInt("missing"), "unregistered");
}

TEST(FlagsDeathTest, TypeMismatchDies) {
  FlagParser p = MakeParser();
  EXPECT_DEATH(p.GetInt("name"), "type mismatch");
}

TEST(FlagsDeathTest, DuplicateRegistrationDies) {
  FlagParser p;
  p.AddInt("x", 1, "first");
  EXPECT_DEATH(p.AddInt("x", 2, "dup"), "Check failed");
}

}  // namespace
}  // namespace infoshield

#include "cli/args.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace rooftune::cli {
namespace {

ArgParser make_parser() {
  ArgParser p;
  p.add_option("machine", "machine name");
  p.add_option("timeout", "seconds", "t");
  p.add_flag("json", "emit json");
  return p;
}

TEST(ArgParser, LongOptionsWithSeparateValue) {
  auto p = make_parser();
  p.parse({"--machine", "2650v4", "--timeout", "5"});
  EXPECT_EQ(p.get_or("machine", ""), "2650v4");
  EXPECT_EQ(p.get_int("timeout", 0), 5);
}

TEST(ArgParser, EqualsSyntax) {
  auto p = make_parser();
  p.parse({"--machine=gold6148", "--timeout=2.5"});
  EXPECT_EQ(p.get_or("machine", ""), "gold6148");
  EXPECT_DOUBLE_EQ(p.get_double("timeout", 0.0), 2.5);
}

TEST(ArgParser, ShortAlias) {
  // The paper's tool exposes the timeout as -t (§III-C.1).
  auto p = make_parser();
  p.parse({"-t", "10"});
  EXPECT_EQ(p.get_int("timeout", 0), 10);
}

TEST(ArgParser, Flags) {
  auto p = make_parser();
  p.parse({"--json"});
  EXPECT_TRUE(p.has("json"));
  EXPECT_FALSE(p.has("machine"));
}

TEST(ArgParser, PositionalArguments) {
  auto p = make_parser();
  p.parse({"first", "--json", "second"});
  EXPECT_EQ(p.positional(), (std::vector<std::string>{"first", "second"}));
}

TEST(ArgParser, DefaultsWhenAbsent) {
  auto p = make_parser();
  p.parse({});
  EXPECT_EQ(p.get_or("machine", "2650v4"), "2650v4");
  EXPECT_EQ(p.get_int("timeout", 10), 10);
  EXPECT_FALSE(p.get("machine").has_value());
}

TEST(ArgParser, Errors) {
  auto p = make_parser();
  EXPECT_THROW(p.parse({"--unknown", "x"}), std::invalid_argument);
  auto p2 = make_parser();
  EXPECT_THROW(p2.parse({"--machine"}), std::invalid_argument);
  auto p3 = make_parser();
  EXPECT_THROW(p3.parse({"--json=true"}), std::invalid_argument);
  auto p4 = make_parser();
  EXPECT_THROW(p4.parse({"-x"}), std::invalid_argument);
  auto p5 = make_parser();
  p5.parse({"--timeout", "abc"});
  EXPECT_THROW(static_cast<void>(p5.get_int("timeout", 0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(p5.get_double("timeout", 0.0)), std::invalid_argument);
  // The whole token must be the number: no suffix, sign or padding, and
  // NaN is not one.
  for (const char* bad : {"50abc", "5 ", " 5", "+5", "1.5.2"}) {
    auto p6 = make_parser();
    p6.parse({"--timeout", bad});
    EXPECT_THROW(static_cast<void>(p6.get_int("timeout", 0)), std::invalid_argument) << bad;
    EXPECT_THROW(static_cast<void>(p6.get_double("timeout", 0.0)), std::invalid_argument)
        << bad;
  }
  for (const char* nan : {"nan", "NaN", "-nan"}) {
    auto p7 = make_parser();
    p7.parse({"--timeout", nan});
    EXPECT_THROW(static_cast<void>(p7.get_double("timeout", 0.0)), std::invalid_argument)
        << nan;
  }
  auto p8 = make_parser();
  p8.parse({"--timeout", "2.5"});
  EXPECT_THROW(static_cast<void>(p8.get_int("timeout", 0)), std::invalid_argument);
  EXPECT_EQ(p8.get_double("timeout", 0.0), 2.5);
}

// --counter-prune style options: the value is optional, and only a
// whole-token numeric is consumed as one (so a following option or
// positional is never swallowed).
TEST(ArgParser, OptionalValueTakesNumericLookahead) {
  ArgParser p;
  p.add_optional_value("counter-prune", "margin");
  p.add_flag("json", "emit json");
  p.parse({"--counter-prune", "0.1", "--json"});
  EXPECT_TRUE(p.has("counter-prune"));
  EXPECT_DOUBLE_EQ(p.get_double("counter-prune", 0.25), 0.1);
  EXPECT_TRUE(p.has("json"));
}

TEST(ArgParser, OptionalValueBareFallsBackToDefault) {
  ArgParser p;
  p.add_optional_value("counter-prune", "margin");
  p.add_flag("json", "emit json");
  p.parse({"--counter-prune", "--json"});
  EXPECT_TRUE(p.has("counter-prune"));
  // No numeric followed: callers read their own default back.
  EXPECT_DOUBLE_EQ(p.get_double("counter-prune", 0.25), 0.25);
  EXPECT_TRUE(p.has("json"));
}

TEST(ArgParser, OptionalValueAtEndOfLineAndEqualsSyntax) {
  ArgParser p;
  p.add_optional_value("counter-prune", "margin");
  p.parse({"--counter-prune"});
  EXPECT_TRUE(p.has("counter-prune"));
  EXPECT_DOUBLE_EQ(p.get_double("counter-prune", 0.25), 0.25);

  ArgParser q;
  q.add_optional_value("counter-prune", "margin");
  q.parse({"--counter-prune=-0.1"});  // negative margin (ablation mode)
  EXPECT_DOUBLE_EQ(q.get_double("counter-prune", 0.25), -0.1);
}

TEST(ArgParser, OptionalValueDoesNotSwallowNonNumericTokens) {
  ArgParser p;
  p.add_optional_value("counter-prune", "margin");
  p.parse({"--counter-prune", "positional"});
  EXPECT_TRUE(p.has("counter-prune"));
  EXPECT_DOUBLE_EQ(p.get_double("counter-prune", 0.25), 0.25);
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "positional");
}

TEST(ArgParser, HelpListsOptions) {
  const auto p = make_parser();
  const std::string help = p.help();
  EXPECT_NE(help.find("--machine"), std::string::npos);
  EXPECT_NE(help.find("(-t)"), std::string::npos);
  EXPECT_NE(help.find("emit json"), std::string::npos);
}

}  // namespace
}  // namespace rooftune::cli

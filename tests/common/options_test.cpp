#include "common/options.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/error.hpp"

namespace agentnet {
namespace {

TEST(OptionsTest, ParsesKeyValuePairs) {
  auto opts = Options::parse({"nodes=300", "policy=random"});
  EXPECT_EQ(opts.get_int("nodes", 0), 300);
  EXPECT_EQ(opts.get_string("policy", ""), "random");
}

TEST(OptionsTest, ArgvOverloadSkipsProgramName) {
  const char* argv[] = {"prog", "runs=4"};
  auto opts = Options::parse(2, argv);
  EXPECT_EQ(opts.get_int("runs", 0), 4);
}

TEST(OptionsTest, FallbacksWhenAbsent) {
  auto opts = Options::parse({});
  EXPECT_EQ(opts.get_int("nodes", 42), 42);
  EXPECT_EQ(opts.get_string("policy", "x"), "x");
  EXPECT_DOUBLE_EQ(opts.get_double("p", 0.5), 0.5);
  EXPECT_TRUE(opts.get_bool("flag", true));
}

TEST(OptionsTest, BareTokenIsTrueFlag) {
  auto opts = Options::parse({"verbose"});
  EXPECT_TRUE(opts.get_bool("verbose", false));
}

TEST(OptionsTest, BoolFormsAccepted) {
  auto opts = Options::parse({"a=YES", "b=off", "c=1", "d=False"});
  EXPECT_TRUE(opts.get_bool("a", false));
  EXPECT_FALSE(opts.get_bool("b", true));
  EXPECT_TRUE(opts.get_bool("c", false));
  EXPECT_FALSE(opts.get_bool("d", true));
}

TEST(OptionsTest, EmptyValueAllowed) {
  auto opts = Options::parse({"csv="});
  EXPECT_EQ(opts.get_string("csv", "x"), "");
}

TEST(OptionsTest, HasDoesNotMarkQueried) {
  auto opts = Options::parse({"nodes=10"});
  EXPECT_TRUE(opts.has("nodes"));
  EXPECT_EQ(opts.unrecognized().size(), 1u);
}

TEST(OptionsTest, RejectsBadNumbers) {
  auto opts = Options::parse({"n=12x", "d=zz", "b=maybe"});
  EXPECT_THROW(opts.get_int("n", 0), ConfigError);
  EXPECT_THROW(opts.get_double("d", 0.0), ConfigError);
  EXPECT_THROW(opts.get_bool("b", false), ConfigError);
}

TEST(OptionsTest, IntRangeRejectsInsteadOfWrapping) {
  // The CLI's count keys read through a range: a negative count used to
  // wrap to SIZE_MAX once cast to size_t.
  auto opts = Options::parse({"nodes=-1", "history=-1", "runs=10001",
                              "max_steps=99999999999999999999", "table=5"});
  for (const char* key : {"nodes", "history", "runs", "max_steps"}) {
    try {
      opts.get_int(key, 1, 1, 10000);
      ADD_FAILURE() << key << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("option ") + key),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(opts.get_int("table", 40, 2, 10000), 5);
  EXPECT_EQ(opts.get_int("capacity", 1, 1, 10000), 1)
      << "an absent key's fallback is not range-checked";
}

TEST(OptionsTest, DoubleRejectsNonFiniteForEveryKey) {
  for (const char* v : {"inf", "-inf", "INF", "infinity", "nan", "-nan",
                        "NaN", "1e999", "1e300x"}) {
    auto opts = Options::parse({std::string("load=") + v});
    EXPECT_THROW(opts.get_double("load", 0.1), ConfigError) << v;
  }
  auto opts = Options::parse({"load=1e300", "p=-0"});
  EXPECT_EQ(opts.get_double("load", 0.1), 1e300)
      << "finite: the traffic config's own validate() bounds it";
  EXPECT_EQ(opts.get_double("p", 1.0), 0.0);
}

TEST(ValueGrammarTest, IntegersAreWholeTokensInRange) {
  EXPECT_EQ(parse_int("x", "-17", -20, 20), -17);
  EXPECT_THROW(parse_int("x", "12abc", 0, 100), ConfigError);
  EXPECT_THROW(parse_int("x", "", 0, 100), ConfigError);
  EXPECT_THROW(parse_int("x", "101", 0, 100), ConfigError);
  try {
    parse_int("option nodes", "-1", 2, 1000);
    ADD_FAILURE() << "accepted";
  } catch (const ConfigError& e) {
    EXPECT_STREQ(e.what(), "option nodes must be in [2, 1000], got -1");
  }
}

TEST(ValueGrammarTest, DoublesAreFiniteWholeTokensInRange) {
  EXPECT_DOUBLE_EQ(parse_double("x", "2.5", 0.0, 3.0), 2.5);
  EXPECT_EQ(parse_double("x", "1.7e308", 0.0,
                         std::numeric_limits<double>::max()),
            1.7e308);
  EXPECT_THROW(parse_double("x", "x", 0.0, 1.0), ConfigError);
  EXPECT_THROW(parse_double("x", "1.5", 0.0, 1.0), ConfigError);
  EXPECT_THROW(parse_double("x", "inf", 0.0,
                            std::numeric_limits<double>::infinity()),
               ConfigError);
}

TEST(ValueGrammarTest, BoolForms) {
  for (const char* v : {"1", "true", "YES", "On"})
    EXPECT_TRUE(parse_bool("x", v)) << v;
  for (const char* v : {"0", "false", "NO", "Off"})
    EXPECT_FALSE(parse_bool("x", v)) << v;
  EXPECT_THROW(parse_bool("x", "maybe"), ConfigError);
}

TEST(OptionsTest, RejectsDuplicateKey) {
  EXPECT_THROW(Options::parse({"a=1", "a=2"}), ConfigError);
}

TEST(OptionsTest, RejectsEmptyKey) {
  EXPECT_THROW(Options::parse({"=v"}), ConfigError);
}

TEST(OptionsTest, UnrecognizedListsOnlyUnqueried) {
  auto opts = Options::parse({"a=1", "b=2", "c=3"});
  opts.get_int("a", 0);
  opts.get_int("c", 0);
  const auto stray = opts.unrecognized();
  ASSERT_EQ(stray.size(), 1u);
  EXPECT_EQ(stray[0], "b");
}

TEST(OptionsTest, FinishThrowsOnStrayKeys) {
  auto opts = Options::parse({"tyop=1"});
  EXPECT_THROW(opts.finish(), ConfigError);
}

TEST(OptionsTest, FinishPassesWhenAllQueried) {
  auto opts = Options::parse({"a=1"});
  opts.get_int("a", 0);
  EXPECT_NO_THROW(opts.finish());
}

}  // namespace
}  // namespace agentnet

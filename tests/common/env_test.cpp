#include "common/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace agentnet {
namespace {

class EnvTest : public ::testing::Test {
 protected:
  void set(const char* name, const char* value) {
    ::setenv(name, value, 1);
    names_.push_back(name);
  }
  void TearDown() override {
    for (const auto& n : names_) ::unsetenv(n.c_str());
  }
  std::vector<std::string> names_;
};

TEST_F(EnvTest, StringUnsetIsNullopt) {
  ::unsetenv("AGENTNET_TEST_UNSET");
  EXPECT_FALSE(env_string("AGENTNET_TEST_UNSET").has_value());
}

TEST_F(EnvTest, StringEmptyIsNullopt) {
  set("AGENTNET_TEST_EMPTY", "");
  EXPECT_FALSE(env_string("AGENTNET_TEST_EMPTY").has_value());
}

TEST_F(EnvTest, StringRoundTrip) {
  set("AGENTNET_TEST_STR", "hello");
  EXPECT_EQ(env_string("AGENTNET_TEST_STR").value(), "hello");
}

TEST_F(EnvTest, IntFallback) {
  ::unsetenv("AGENTNET_TEST_INT");
  EXPECT_EQ(env_int("AGENTNET_TEST_INT", 42), 42);
}

TEST_F(EnvTest, IntParses) {
  set("AGENTNET_TEST_INT", "-17");
  EXPECT_EQ(env_int("AGENTNET_TEST_INT", 0), -17);
}

TEST_F(EnvTest, IntRejectsGarbage) {
  set("AGENTNET_TEST_INT", "12abc");
  EXPECT_THROW(env_int("AGENTNET_TEST_INT", 0), ConfigError);
}

TEST_F(EnvTest, DoubleParses) {
  set("AGENTNET_TEST_DBL", "2.5");
  EXPECT_DOUBLE_EQ(env_double("AGENTNET_TEST_DBL", 0.0), 2.5);
}

TEST_F(EnvTest, DoubleRejectsGarbage) {
  set("AGENTNET_TEST_DBL", "x");
  EXPECT_THROW(env_double("AGENTNET_TEST_DBL", 0.0), ConfigError);
}

TEST_F(EnvTest, DoubleRejectsNonFiniteNamingTheVariable) {
  // No AGENTNET_* double knob means anything at infinity, and NaN slips
  // past every range check, so both are rejected at the parse.
  for (const char* v : {"inf", "-inf", "INF", "infinity", "nan", "-nan",
                        "NaN", "1e999"}) {
    set("AGENTNET_TEST_DBL", v);
    try {
      env_double("AGENTNET_TEST_DBL", 0.0);
      ADD_FAILURE() << v << " was accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("AGENTNET_TEST_DBL"),
                std::string::npos)
          << v << ": " << e.what();
    }
  }
}

TEST_F(EnvTest, DoubleAcceptsFiniteExtremes) {
  set("AGENTNET_TEST_DBL", "-0");
  EXPECT_EQ(env_double("AGENTNET_TEST_DBL", 1.0), 0.0);
  set("AGENTNET_TEST_DBL", "1.7e308");
  EXPECT_EQ(env_double("AGENTNET_TEST_DBL", 0.0), 1.7e308);
}

TEST_F(EnvTest, BoolTruthyForms) {
  for (const char* v : {"1", "true", "YES", "On"}) {
    set("AGENTNET_TEST_BOOL", v);
    EXPECT_TRUE(env_bool("AGENTNET_TEST_BOOL", false)) << v;
  }
}

TEST_F(EnvTest, BoolFalsyForms) {
  for (const char* v : {"0", "false", "NO", "Off"}) {
    set("AGENTNET_TEST_BOOL", v);
    EXPECT_FALSE(env_bool("AGENTNET_TEST_BOOL", true)) << v;
  }
}

TEST_F(EnvTest, BoolRejectsGarbage) {
  set("AGENTNET_TEST_BOOL", "maybe");
  EXPECT_THROW(env_bool("AGENTNET_TEST_BOOL", false), ConfigError);
}

TEST_F(EnvTest, BenchRunsDefault) {
  ::unsetenv("AGENTNET_RUNS");
  EXPECT_EQ(bench_runs(10), 10);
}

TEST_F(EnvTest, BenchRunsOverride) {
  set("AGENTNET_RUNS", "40");
  EXPECT_EQ(bench_runs(10), 40);
}

TEST_F(EnvTest, BenchRunsRejectsOutOfRange) {
  set("AGENTNET_RUNS", "0");
  EXPECT_THROW(bench_runs(10), ConfigError);
}

TEST_F(EnvTest, BenchFullDefaultsOff) {
  ::unsetenv("AGENTNET_FULL");
  EXPECT_FALSE(bench_full());
}

}  // namespace
}  // namespace agentnet

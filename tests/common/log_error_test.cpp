#include <gtest/gtest.h>

#include "common/error.hpp"

namespace agentnet {
namespace {

TEST(ErrorTest, HierarchyIsCatchable) {
  EXPECT_THROW(throw ConfigError("x"), Error);
  EXPECT_THROW(throw Error("z"), std::runtime_error);
}

TEST(ErrorTest, WhatCarriesMessage) {
  const ConfigError e("knob out of range");
  EXPECT_STREQ(e.what(), "knob out of range");
}

TEST(ErrorTest, RequireMacroThrowsWithContext) {
  try {
    AGENTNET_REQUIRE(1 == 2, "one is not two");
    FAIL() << "must have thrown";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("one is not two"),
              std::string::npos);
  }
}

TEST(ErrorTest, RequirePassesSilently) {
  EXPECT_NO_THROW(AGENTNET_REQUIRE(2 + 2 == 4, "arithmetic works"));
}

TEST(ErrorTest, AssertDeath) {
  // AGENTNET_ASSERT aborts: verify through a death test.
  EXPECT_DEATH({ AGENTNET_ASSERT(false); }, "assertion failed");
  EXPECT_DEATH({ AGENTNET_ASSERT_MSG(false, "with context"); },
               "with context");
}

}  // namespace
}  // namespace agentnet

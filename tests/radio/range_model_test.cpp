#include "radio/range_model.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace agentnet {
namespace {

TEST(RangeHelpersTest, HeterogeneousWithinBounds) {
  Rng rng(1);
  const auto r = heterogeneous_ranges(1000, 10.0, 20.0, rng);
  double lo = 1e9, hi = 0.0;
  for (double x : r) {
    EXPECT_GE(x, 10.0);
    EXPECT_LE(x, 20.0);
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  // The draw should actually spread across the interval.
  EXPECT_LT(lo, 11.0);
  EXPECT_GT(hi, 19.0);
}

TEST(RangeHelpersTest, HeterogeneousRejectsBadBounds) {
  Rng rng(1);
  EXPECT_THROW(heterogeneous_ranges(3, 0.0, 10.0, rng), ConfigError);
  EXPECT_THROW(heterogeneous_ranges(3, 10.0, 5.0, rng), ConfigError);
}

TEST(RangeScalingTest, FullChargeGivesBaseRange) {
  RangeScaling s{0.3};
  EXPECT_DOUBLE_EQ(s.apply(100.0, 1.0), 100.0);
}

TEST(RangeScalingTest, EmptyChargeGivesFloor) {
  RangeScaling s{0.3};
  EXPECT_DOUBLE_EQ(s.apply(100.0, 0.0), 30.0);
}

TEST(RangeScalingTest, LinearInBetween) {
  RangeScaling s{0.5};
  EXPECT_DOUBLE_EQ(s.apply(100.0, 0.5), 75.0);
}

TEST(RangeScalingTest, ClampsFractionOutsideUnitInterval) {
  RangeScaling s{0.4};
  EXPECT_DOUBLE_EQ(s.apply(10.0, -2.0), 4.0);
  EXPECT_DOUBLE_EQ(s.apply(10.0, 3.0), 10.0);
}

TEST(RadioModelTest, EffectiveRangeCombinesScaling) {
  RadioModel radio({100.0, 50.0}, RangeScaling{0.5});
  EXPECT_DOUBLE_EQ(radio.effective_range(0, 1.0), 100.0);
  EXPECT_DOUBLE_EQ(radio.effective_range(0, 0.0), 50.0);
  EXPECT_DOUBLE_EQ(radio.effective_range(1, 0.5), 37.5);
}

TEST(RadioModelTest, MaxBaseRange) {
  RadioModel radio({10.0, 99.0, 45.0}, RangeScaling{1.0});
  EXPECT_DOUBLE_EQ(radio.max_base_range(), 99.0);
  EXPECT_EQ(radio.size(), 3u);
}

TEST(RadioModelTest, RejectsInvalidConstruction) {
  EXPECT_THROW(RadioModel({}, RangeScaling{0.5}), ConfigError);
  EXPECT_THROW(RadioModel({10.0, -1.0}, RangeScaling{0.5}), ConfigError);
  EXPECT_THROW(RadioModel({10.0}, RangeScaling{0.0}), ConfigError);
  EXPECT_THROW(RadioModel({10.0}, RangeScaling{1.5}), ConfigError);
}

}  // namespace
}  // namespace agentnet

#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace agentnet {
namespace {

TEST(RunningStatsTest, EmptyState) {
  RunningStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderr_mean(), 0.0);
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats s;
  s.add(4.5);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.5);
  EXPECT_DOUBLE_EQ(s.min(), 4.5);
  EXPECT_DOUBLE_EQ(s.max(), 4.5);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownSmallSample) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum sq dev = 32 → 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStatsTest, MergeEqualsConcatenation) {
  Rng rng(1);
  RunningStats left, right, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal(3.0, 1.5);
    left.add(x);
    all.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = rng.normal(-1.0, 0.5);
    right.add(x);
    all.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(RunningStatsTest, MergeWithEmptyIsNoop) {
  RunningStats s, empty;
  s.add(1.0);
  s.add(2.0);
  s.merge(empty);
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 1.5);
  empty.merge(s);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(ConfidenceTest, ZeroForTinySamples) {
  RunningStats s;
  EXPECT_EQ(confidence_halfwidth(s), 0.0);
  s.add(1.0);
  EXPECT_EQ(confidence_halfwidth(s), 0.0);
}

TEST(ConfidenceTest, KnownTwoSampleValue) {
  RunningStats s;
  s.add(0.0);
  s.add(2.0);
  // mean 1, sd sqrt(2), se 1; df=1 → t95 = 12.706.
  EXPECT_NEAR(confidence_halfwidth(s, 0.95), 12.706, 1e-9);
  EXPECT_NEAR(confidence_halfwidth(s, 0.90), 6.314, 1e-9);
  EXPECT_NEAR(confidence_halfwidth(s, 0.99), 63.657, 1e-9);
}

TEST(ConfidenceTest, ShrinksWithSampleSize) {
  Rng rng(2);
  RunningStats small, large;
  for (int i = 0; i < 10; ++i) small.add(rng.normal());
  for (int i = 0; i < 1000; ++i) large.add(rng.normal());
  EXPECT_LT(confidence_halfwidth(large), confidence_halfwidth(small));
}

TEST(QuantileTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(QuantileTest, Extremes) {
  std::vector<double> v{5.0, 1.0, 9.0, 3.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 9.0);
}

TEST(QuantileTest, LinearInterpolation) {
  // Sorted: 10, 20, 30, 40. q=0.25 → position 0.75 → 17.5.
  EXPECT_DOUBLE_EQ(quantile({40.0, 10.0, 30.0, 20.0}, 0.25), 17.5);
}

TEST(QuantileTest, SingleElement) {
  EXPECT_DOUBLE_EQ(quantile({7.0}, 0.3), 7.0);
}

TEST(QuantileTest, RejectsEmptyAndBadQ) {
  EXPECT_THROW(quantile({}, 0.5), ConfigError);
  EXPECT_THROW(quantile({1.0}, -0.1), ConfigError);
  EXPECT_THROW(quantile({1.0}, 1.1), ConfigError);
}

TEST(SeriesAccumulatorTest, MeanOfTwoSeries) {
  SeriesAccumulator acc;
  acc.add({1.0, 2.0, 3.0});
  acc.add({3.0, 4.0, 5.0});
  EXPECT_EQ(acc.runs(), 2u);
  EXPECT_EQ(acc.length(), 3u);
  const auto mean = acc.mean();
  EXPECT_DOUBLE_EQ(mean[0], 2.0);
  EXPECT_DOUBLE_EQ(mean[1], 3.0);
  EXPECT_DOUBLE_EQ(mean[2], 4.0);
}

TEST(SeriesAccumulatorTest, RejectsLengthMismatch) {
  SeriesAccumulator acc;
  acc.add({1.0, 2.0});
  EXPECT_THROW(acc.add({1.0}), ConfigError);
}

TEST(SeriesAccumulatorTest, PerStepStatsAccessible) {
  SeriesAccumulator acc;
  acc.add({1.0});
  acc.add({3.0});
  EXPECT_EQ(acc.at(0).count(), 2u);
  EXPECT_DOUBLE_EQ(acc.at(0).mean(), 2.0);
}

}  // namespace
}  // namespace agentnet

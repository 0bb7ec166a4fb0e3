#include "common/compare.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace agentnet {
namespace {

RunningStats sample(Rng& rng, double mean, double sd, int n) {
  RunningStats s;
  for (int i = 0; i < n; ++i) s.add(rng.normal(mean, sd));
  return s;
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(normal_cdf(-1.96), 0.025, 1e-3);
  EXPECT_NEAR(normal_cdf(5.0), 1.0, 1e-6);
}

TEST(CompareTest, RejectsTinySamples) {
  RunningStats a, b;
  a.add(1.0);
  b.add(2.0);
  b.add(3.0);
  EXPECT_THROW(compare_samples(a, b), ConfigError);
}

TEST(CompareTest, ClearlySeparatedSamplesAreSignificant) {
  Rng rng(1);
  const auto a = sample(rng, 10.0, 1.0, 30);
  const auto b = sample(rng, 13.0, 1.0, 30);
  const auto cmp = compare_samples(a, b);
  EXPECT_LT(cmp.difference, 0.0 + -2.0);  // mean_a - mean_b ≈ -3
  EXPECT_LT(cmp.p_value, 0.05);
  EXPECT_LT(cmp.p_value, 1e-6);
  EXPECT_LT(cmp.effect_size, -2.0);
}

TEST(CompareTest, IdenticalDistributionsUsuallyNotSignificant) {
  Rng rng(2);
  int significant = 0;
  for (int trial = 0; trial < 100; ++trial) {
    const auto a = sample(rng, 5.0, 2.0, 25);
    const auto b = sample(rng, 5.0, 2.0, 25);
    if (compare_samples(a, b).p_value < 0.05) ++significant;
  }
  // 5% nominal false-positive rate; allow generous slack.
  EXPECT_LT(significant, 15);
}

TEST(CompareTest, SymmetryOfDirection) {
  Rng rng(3);
  const auto a = sample(rng, 1.0, 0.5, 20);
  const auto b = sample(rng, 2.0, 0.5, 20);
  const auto ab = compare_samples(a, b);
  const auto ba = compare_samples(b, a);
  EXPECT_NEAR(ab.difference, -ba.difference, 1e-12);
  EXPECT_NEAR(ab.p_value, ba.p_value, 1e-12);
  EXPECT_NEAR(ab.effect_size, -ba.effect_size, 1e-12);
}

TEST(CompareTest, DegenerateZeroVariance) {
  RunningStats a, b;
  for (int i = 0; i < 5; ++i) {
    a.add(4.0);
    b.add(4.0);
  }
  const auto same = compare_samples(a, b);
  EXPECT_DOUBLE_EQ(same.p_value, 1.0);
  RunningStats c;
  for (int i = 0; i < 5; ++i) c.add(9.0);
  const auto diff = compare_samples(a, c);
  EXPECT_DOUBLE_EQ(diff.p_value, 0.0);
  EXPECT_LT(diff.p_value, 0.05);
}

TEST(CompareTest, WelchHandlesUnequalVariances) {
  Rng rng(4);
  const auto tight = sample(rng, 10.0, 0.1, 40);
  const auto loose = sample(rng, 10.0, 5.0, 10);
  const auto cmp = compare_samples(tight, loose);
  // df should be pulled toward the small/noisy sample, far below n-2.
  EXPECT_LT(cmp.degrees_of_freedom, 12.0);
  EXPECT_GT(cmp.degrees_of_freedom, 5.0);
}

TEST(CompareTest, PowerGrowsWithSampleSize) {
  Rng rng(5);
  const auto a_small = sample(rng, 10.0, 2.0, 6);
  const auto b_small = sample(rng, 11.0, 2.0, 6);
  const auto a_big = sample(rng, 10.0, 2.0, 200);
  const auto b_big = sample(rng, 11.0, 2.0, 200);
  EXPECT_LT(compare_samples(a_big, b_big).p_value,
            compare_samples(a_small, b_small).p_value);
}

}  // namespace
}  // namespace agentnet

#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace agentnet {
namespace {

TEST(SplitMix64Test, KnownSequenceFromZeroSeed) {
  // Reference values for splitmix64 with state starting at 0.
  SplitMix64 sm(0);
  EXPECT_EQ(sm.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm.next(), 0x06c45d188009454fULL);
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i)
    if (a() != b()) ++differing;
  EXPECT_GT(differing, 90);
}

TEST(RngTest, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(rng.uniform(17), 17u);
}

TEST(RngTest, UniformBoundOneAlwaysZero) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(RngTest, UniformCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformIsApproximatelyUniform) {
  Rng rng(13);
  std::array<int, 10> counts{};
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) ++counts[rng.uniform(10)];
  for (int c : counts) {
    EXPECT_GT(c, samples / 10 - 600);
    EXPECT_LT(c, samples / 10 + 600);
  }
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRealMeanIsCentered) {
  Rng rng(23);
  double sum = 0.0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i) sum += rng.uniform_real(10.0, 20.0);
  EXPECT_NEAR(sum / samples, 15.0, 0.1);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(29);
  int hits = 0;
  const int samples = 100000;
  for (int i = 0; i < samples; ++i)
    if (rng.bernoulli(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / samples, 0.3, 0.01);
}

TEST(RngTest, BernoulliDegenerateProbabilities) {
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngTest, NormalMomentsMatch) {
  Rng rng(37);
  double sum = 0.0, sum2 = 0.0;
  const int samples = 200000;
  for (int i = 0; i < samples; ++i) {
    const double x = rng.normal(5.0, 2.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / samples;
  const double var = sum2 / samples - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(RngTest, PoissonZeroMeanDrawsNothing) {
  Rng a(5), b(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.poisson(0.0), 0u);
  // A zero-rate draw must consume no randomness, so downstream draws stay
  // aligned with an Rng that never saw the call.
  EXPECT_EQ(a(), b());
}

TEST(RngTest, PoissonMomentsMatchSmallMean) {
  Rng rng(43);
  const int samples = 50000;
  double sum = 0.0, sum2 = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = static_cast<double>(rng.poisson(3.0));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / samples;
  EXPECT_NEAR(mean, 3.0, 0.05);
  // For Poisson, variance == mean.
  EXPECT_NEAR(sum2 / samples - mean * mean, 3.0, 0.15);
}

TEST(RngTest, PoissonMeanMatchesLargeChunkedMean) {
  // Means above the chunk size exercise the chunked Knuth path (a sum of
  // independent Poissons is Poisson in the summed mean).
  Rng rng(47);
  const int samples = 20000;
  double sum = 0.0;
  for (int i = 0; i < samples; ++i)
    sum += static_cast<double>(rng.poisson(40.0));
  EXPECT_NEAR(sum / samples, 40.0, 0.3);
}

TEST(RngTest, PoissonDeterministicForSameSeed) {
  Rng a(53), b(53);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.poisson(1.7), b.poisson(1.7));
}

TEST(RngTest, ForkStreamsAreIndependent) {
  Rng parent(43);
  Rng a = parent.fork(1);
  Rng b = parent.fork(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i)
    if (a() != b()) ++differing;
  EXPECT_GT(differing, 90);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(47);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ShuffleVisitsManyOrders) {
  Rng rng(53);
  std::set<std::vector<int>> orders;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> v{1, 2, 3, 4};
    rng.shuffle(std::span<int>(v));
    orders.insert(v);
  }
  // 4! = 24 permutations; 200 trials should see most of them.
  EXPECT_GT(orders.size(), 20u);
}

TEST(RngTest, SampleIndicesDistinctAndInRange) {
  Rng rng(59);
  for (int trial = 0; trial < 100; ++trial) {
    auto sample = rng.sample_indices(50, 12);
    ASSERT_EQ(sample.size(), 12u);
    std::set<std::size_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 12u);
    for (auto idx : sample) EXPECT_LT(idx, 50u);
  }
}

TEST(RngTest, SampleIndicesFullPopulation) {
  Rng rng(61);
  auto sample = rng.sample_indices(8, 8);
  std::sort(sample.begin(), sample.end());
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, SampleIndicesZero) {
  Rng rng(67);
  EXPECT_TRUE(rng.sample_indices(5, 0).empty());
}

TEST(RngTest, PickReturnsContainedElement) {
  Rng rng(71);
  const std::vector<int> items{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int v = rng.pick(std::span<const int>(items));
    EXPECT_TRUE(v == 10 || v == 20 || v == 30);
  }
}

}  // namespace
}  // namespace agentnet

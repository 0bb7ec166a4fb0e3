#include "common/dense_bitset.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace agentnet {
namespace {

TEST(DenseBitsetTest, StartsClear) {
  DenseBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DenseBitsetTest, SetAndTest) {
  DenseBitset b(100);
  EXPECT_TRUE(b.set(0));
  EXPECT_TRUE(b.set(63));
  EXPECT_TRUE(b.set(64));
  EXPECT_TRUE(b.set(99));
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(99));
  EXPECT_FALSE(b.test(1));
}

TEST(DenseBitsetTest, DoubleSetReturnsFalse) {
  DenseBitset b(10);
  EXPECT_TRUE(b.set(5));
  EXPECT_FALSE(b.set(5));
  EXPECT_EQ(b.count(), 1u);
}

TEST(DenseBitsetTest, ResetClearsAndAdjustsCount) {
  DenseBitset b(10);
  b.set(3);
  b.set(7);
  b.reset(3);
  EXPECT_FALSE(b.test(3));
  EXPECT_EQ(b.count(), 1u);
  b.reset(3);  // idempotent
  EXPECT_EQ(b.count(), 1u);
}

TEST(DenseBitsetTest, MergeCountsNewBits) {
  DenseBitset a(200), b(200);
  a.set(1);
  a.set(100);
  b.set(100);
  b.set(150);
  EXPECT_EQ(a.merge(b), 1u);  // only 150 is new
  EXPECT_EQ(a.count(), 3u);
  EXPECT_TRUE(a.test(150));
}

// Edge-id sets grow with their index: a merge with a longer operand
// extends this set, and a shorter operand's missing tail reads as clear.
// (Mixing maps of different networks is rejected a layer up, by
// MapKnowledge's edge-index check.)
TEST(DenseBitsetTest, MergeGrowsToTheLongerOperand) {
  DenseBitset a(10), b(130);
  a.set(9);
  b.set(129);
  EXPECT_EQ(a.merge(b), 1u);
  EXPECT_EQ(a.size(), 130u);
  EXPECT_TRUE(a.test(9));
  EXPECT_TRUE(a.test(129));
  DenseBitset c(5);
  c.set(0);
  EXPECT_EQ(a.merge(c), 1u);
  EXPECT_EQ(a.size(), 130u) << "a shorter operand never shrinks the set";
  EXPECT_EQ(a.count(), 3u);
}

TEST(DenseBitsetTest, GrowKeepsBitsAndReadsPastTheEndAsClear) {
  DenseBitset b(3);
  b.set(2);
  EXPECT_FALSE(b.test(3));
  EXPECT_FALSE(b.test(1000));
  b.grow(200);
  EXPECT_EQ(b.size(), 200u);
  EXPECT_TRUE(b.test(2));
  EXPECT_TRUE(b.set(199));
  b.grow(50);  // never shrinks
  EXPECT_EQ(b.size(), 200u);
  EXPECT_EQ(b.count(), 2u);
}

TEST(DenseBitsetTest, ForEachVisitsSetBitsAscending) {
  DenseBitset b(300);
  const std::vector<std::size_t> bits{0, 63, 64, 170, 299};
  for (std::size_t i : bits) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits);
}

TEST(DenseBitsetTest, LoadStateRejectsBitsPastTheSize) {
  snapshot::ByteWriter w;
  w.size(70);  // two words; bits 70..127 must be clear
  w.pod_vec(std::vector<std::uint64_t>{0, std::uint64_t{1} << 10});
  snapshot::ByteReader r(w.bytes());
  DenseBitset b;
  EXPECT_THROW(b.load_state(r), ConfigError);
}

TEST(DenseBitsetTest, IntersectionCount) {
  DenseBitset a(300), b(300);
  for (std::size_t i = 0; i < 300; i += 3) a.set(i);
  for (std::size_t i = 0; i < 300; i += 5) b.set(i);
  // multiples of 15 under 300: 0,15,...,285 → 20 values.
  EXPECT_EQ(a.intersection_count(b), 20u);
}

TEST(DenseBitsetTest, ClearResets) {
  DenseBitset b(64);
  for (std::size_t i = 0; i < 64; ++i) b.set(i);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
  for (std::size_t i = 0; i < 64; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DenseBitsetTest, CountTracksRandomOperations) {
  Rng rng(9);
  DenseBitset b(512);
  std::vector<bool> model(512, false);
  for (int op = 0; op < 5000; ++op) {
    const std::size_t i = rng.index(512);
    if (rng.bernoulli(0.6)) {
      b.set(i);
      model[i] = true;
    } else {
      b.reset(i);
      model[i] = false;
    }
  }
  std::size_t expected = 0;
  for (std::size_t i = 0; i < 512; ++i) {
    EXPECT_EQ(b.test(i), model[i]);
    if (model[i]) ++expected;
  }
  EXPECT_EQ(b.count(), expected);
}

TEST(DenseBitsetTest, EqualityComparesContents) {
  DenseBitset a(20), b(20);
  EXPECT_EQ(a, b);
  a.set(3);
  EXPECT_NE(a, b);
  b.set(3);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace agentnet

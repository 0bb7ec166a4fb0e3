#include "core/stigmergy.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace agentnet {
namespace {

TEST(StigmergyTest, UnmarkedByDefault) {
  StigmergyBoard board(4);
  EXPECT_FALSE(board.marked(0, 1, 0));
  EXPECT_EQ(board.footprint_count(0, 0), 0u);
}

TEST(StigmergyTest, StampAndQuery) {
  StigmergyBoard board(4);
  board.stamp(0, 2, 5);
  EXPECT_TRUE(board.marked(0, 2, 5));
  EXPECT_FALSE(board.marked(0, 1, 5));
  EXPECT_FALSE(board.marked(2, 0, 5)) << "footprints are per origin node";
  EXPECT_EQ(board.footprint_count(0, 5), 1u);
}

TEST(StigmergyTest, NoExpiryWhenHorizonZero) {
  StigmergyBoard board(4, 0);
  board.stamp(0, 1, 0);
  EXPECT_TRUE(board.marked(0, 1, 1000000));
}

TEST(StigmergyTest, HorizonExpiresFootprints) {
  StigmergyBoard board(4, 10);
  board.stamp(0, 1, 0);
  EXPECT_TRUE(board.marked(0, 1, 10));
  EXPECT_FALSE(board.marked(0, 1, 11));
  EXPECT_EQ(board.footprint_count(0, 11), 0u);
}

TEST(StigmergyTest, RestampRefreshes) {
  StigmergyBoard board(4, 10);
  board.stamp(0, 1, 0);
  board.stamp(0, 1, 8);
  EXPECT_TRUE(board.marked(0, 1, 15));
  EXPECT_EQ(board.footprint_count(0, 15), 1u) << "same target, one slot";
}

TEST(StigmergyTest, DefaultCapacityKeepsOnlyLatestFootprint) {
  StigmergyBoard board(5);  // capacity 1: the paper's "last path" rule
  board.stamp(0, 1, 0);
  board.stamp(0, 2, 1);
  EXPECT_FALSE(board.marked(0, 1, 1));
  EXPECT_TRUE(board.marked(0, 2, 1));
  EXPECT_EQ(board.footprint_count(0, 1), 1u);
}

TEST(StigmergyTest, MultipleTargetsCoexist) {
  StigmergyBoard board(5, 0, 8);
  board.stamp(0, 1, 0);
  board.stamp(0, 2, 1);
  board.stamp(0, 3, 2);
  EXPECT_TRUE(board.marked(0, 1, 2));
  EXPECT_TRUE(board.marked(0, 2, 2));
  EXPECT_TRUE(board.marked(0, 3, 2));
  EXPECT_EQ(board.footprint_count(0, 2), 3u);
}

TEST(StigmergyTest, CapacityEvictsOldest) {
  StigmergyBoard board(10, 0, 2);
  board.stamp(0, 1, 0);
  board.stamp(0, 2, 1);
  board.stamp(0, 3, 2);  // evicts footprint for 1
  EXPECT_FALSE(board.marked(0, 1, 2));
  EXPECT_TRUE(board.marked(0, 2, 2));
  EXPECT_TRUE(board.marked(0, 3, 2));
}

TEST(StigmergyTest, ExpiredSlotReusedBeforeEviction) {
  StigmergyBoard board(10, 5, 2);
  board.stamp(0, 1, 0);
  board.stamp(0, 2, 7);  // footprint for 1 expired at t=6
  board.stamp(0, 3, 8);  // should reuse 1's slot, keeping 2
  EXPECT_TRUE(board.marked(0, 2, 8));
  EXPECT_TRUE(board.marked(0, 3, 8));
}

TEST(StigmergyTest, RejectsZeroCapacity) {
  EXPECT_THROW(StigmergyBoard(4, 0, 0), ConfigError);
}

}  // namespace
}  // namespace agentnet

#include "mobility/mobility.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/error.hpp"

namespace agentnet {
namespace {

const Aabb kArena{{0.0, 0.0}, {100.0, 100.0}};

TEST(RandomPositionsTest, AllInsideBounds) {
  Rng rng(1);
  const auto pos = random_positions(500, kArena, rng);
  ASSERT_EQ(pos.size(), 500u);
  for (const auto& p : pos) EXPECT_TRUE(kArena.contains(p));
}

TEST(StationaryMobilityTest, NothingMoves) {
  StationaryMobility model;
  std::vector<Vec2> pos{{1.0, 2.0}, {3.0, 4.0}};
  const auto before = pos;
  for (int i = 0; i < 10; ++i) model.step(pos);
  EXPECT_EQ(pos, before);
  EXPECT_TRUE(model.is_stationary(0));
}

TEST(RandomDirectionTest, OnlyMobileNodesMove) {
  Rng rng(2);
  RandomDirectionMobility model(kArena, {true, false}, {1.0, 2.0, 0.0},
                                rng.fork(1));
  std::vector<Vec2> pos{{50.0, 50.0}, {20.0, 20.0}};
  model.step(pos);
  EXPECT_NE(pos[0], Vec2(50.0, 50.0));
  EXPECT_EQ(pos[1], Vec2(20.0, 20.0));
  EXPECT_FALSE(model.is_stationary(0));
  EXPECT_TRUE(model.is_stationary(1));
}

TEST(RandomDirectionTest, StaysInBoundsUnderLongRun) {
  Rng rng(3);
  RandomDirectionMobility model(kArena, std::vector<bool>(20, true),
                                {2.0, 5.0, 0.1}, rng.fork(1));
  auto pos = random_positions(20, kArena, rng);
  for (int t = 0; t < 2000; ++t) {
    model.step(pos);
    for (const auto& p : pos) EXPECT_TRUE(kArena.contains(p));
  }
}

TEST(RandomDirectionTest, SpeedIsPerNodeWithinParams) {
  Rng rng(4);
  RandomDirectionMobility model(kArena, std::vector<bool>(50, true),
                                {1.0, 3.0, 0.0}, rng.fork(1));
  bool varied = false;
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_GE(model.speed(i), 1.0);
    EXPECT_LE(model.speed(i), 3.0);
    if (std::abs(model.speed(i) - model.speed(0)) > 1e-9) varied = true;
  }
  EXPECT_TRUE(varied) << "random velocities should differ across nodes";
}

TEST(RandomDirectionTest, StepDisplacementMatchesSpeed) {
  Rng rng(5);
  RandomDirectionMobility model(kArena, {true}, {2.0, 2.0, 0.0},
                                rng.fork(1));
  std::vector<Vec2> pos{{50.0, 50.0}};
  const Vec2 before = pos[0];
  model.step(pos);
  EXPECT_NEAR(distance(before, pos[0]), 2.0, 1e-9);
}

TEST(RandomDirectionTest, RejectsBadParams) {
  Rng rng(6);
  EXPECT_THROW(RandomDirectionMobility(kArena, {true}, {-1.0, 2.0, 0.0},
                                       rng.fork(1)),
               ConfigError);
  EXPECT_THROW(RandomDirectionMobility(kArena, {true}, {3.0, 2.0, 0.0},
                                       rng.fork(2)),
               ConfigError);
  EXPECT_THROW(RandomDirectionMobility(kArena, {true}, {1.0, 2.0, 1.5},
                                       rng.fork(3)),
               ConfigError);
}

TEST(RandomDirectionTest, PositionCountMismatchThrows) {
  Rng rng(7);
  RandomDirectionMobility model(kArena, {true, true}, {1.0, 1.0, 0.0},
                                rng.fork(1));
  std::vector<Vec2> pos{{1.0, 1.0}};
  EXPECT_THROW(model.step(pos), ConfigError);
}

TEST(TraceMobilityTest, ReplayMatchesRecording) {
  Rng rng(10);
  RandomDirectionMobility model(kArena, std::vector<bool>(5, true),
                                {1.0, 2.0, 0.1}, rng.fork(1));
  auto initial = random_positions(5, kArena, rng);
  auto live = initial;
  std::vector<std::vector<Vec2>> expected;
  {
    // Record with a copy of the model state by replaying through record().
    RandomDirectionMobility recorder(kArena, std::vector<bool>(5, true),
                                     {1.0, 2.0, 0.1}, Rng(99));
    TraceMobility trace = TraceMobility::record(recorder, initial, 50);
    EXPECT_EQ(trace.frames(), 50u);
    auto replay = initial;
    for (std::size_t t = 0; t < 50; ++t) {
      trace.step(replay);
      EXPECT_EQ(replay, trace.frame(t));
    }
  }
  (void)live;
  (void)expected;
}

TEST(TraceMobilityTest, ResetRestartsPlayback) {
  Rng rng(11);
  RandomDirectionMobility recorder(kArena, {true}, {1.0, 1.0, 0.0},
                                   rng.fork(1));
  TraceMobility trace = TraceMobility::record(recorder, {{50.0, 50.0}}, 10);
  std::vector<Vec2> a{{50.0, 50.0}};
  trace.step(a);
  const Vec2 first = a[0];
  trace.step(a);
  trace.reset();
  std::vector<Vec2> b{{50.0, 50.0}};
  trace.step(b);
  EXPECT_EQ(b[0], first);
}

TEST(TraceMobilityTest, HoldsFinalFramePastEnd) {
  Rng rng(12);
  RandomDirectionMobility recorder(kArena, {true}, {1.0, 1.0, 0.0},
                                   rng.fork(1));
  TraceMobility trace = TraceMobility::record(recorder, {{50.0, 50.0}}, 3);
  std::vector<Vec2> pos{{50.0, 50.0}};
  for (int t = 0; t < 3; ++t) trace.step(pos);
  const Vec2 last = pos[0];
  for (int t = 0; t < 5; ++t) {
    trace.step(pos);
    EXPECT_EQ(pos[0], last);
  }
}

TEST(TraceMobilityTest, PreservesStationaryFlags) {
  Rng rng(13);
  RandomDirectionMobility recorder(kArena, {true, false}, {1.0, 1.0, 0.0},
                                   rng.fork(1));
  TraceMobility trace =
      TraceMobility::record(recorder, {{1.0, 1.0}, {2.0, 2.0}}, 5);
  EXPECT_FALSE(trace.is_stationary(0));
  EXPECT_TRUE(trace.is_stationary(1));
}

TEST(TraceMobilityTest, MixedMaskReplayMatchesLiveModel) {
  const std::vector<bool> mobile{true, false, true, true, false, false, true};
  const RandomDirectionMobility::Params params{1.0, 3.0, 0.2};
  Rng rng(14);
  const auto initial = random_positions(mobile.size(), kArena, rng);
  RandomDirectionMobility recorder(kArena, mobile, params, Rng(15));
  RandomDirectionMobility live(kArena, mobile, params, Rng(15));
  const TraceMobility recorded = TraceMobility::record(recorder, initial, 40);
  ASSERT_EQ(recorded.frames(), 40u);
  EXPECT_EQ(std::vector<std::uint32_t>(recorded.movers().begin(),
                                       recorded.movers().end()),
            (std::vector<std::uint32_t>{0, 2, 3, 6}));
  TraceMobility trace = recorded;
  auto expected = initial;
  auto replay = initial;
  for (std::size_t t = 0; t < 40; ++t) {
    live.step(expected);
    trace.step(replay);
    ASSERT_EQ(replay, expected) << "step " << t;
    ASSERT_EQ(recorded.frame(t), expected) << "step " << t;
    ASSERT_EQ(recorded.mover_frame(t).size(), 4u);
  }
  for (int t = 0; t < 5; ++t) {
    trace.step(replay);
    EXPECT_EQ(replay, expected) << "past the end, step " << t;
  }
}

TEST(TraceMobilityTest, CopiesShareOneRecordingWithOwnCursors) {
  RandomDirectionMobility recorder(kArena, {true, false, true},
                                   {1.0, 2.0, 0.1}, Rng(16));
  const std::vector<Vec2> initial{{10.0, 10.0}, {20.0, 20.0}, {30.0, 30.0}};
  TraceMobility a = TraceMobility::record(recorder, initial, 10);
  TraceMobility b = a;
  TraceMobility c;
  c = b;
  for (std::size_t t = 0; t < a.frames(); ++t) {
    EXPECT_EQ(a.mover_frame(t).data(), b.mover_frame(t).data());
    EXPECT_EQ(a.mover_frame(t).data(), c.mover_frame(t).data());
  }
  EXPECT_EQ(&a.initial(), &b.initial());
  // Cursors move independently: a runs ahead, b and c start from zero.
  auto pa = initial;
  for (int t = 0; t < 3; ++t) a.step(pa);
  auto pb = initial;
  b.step(pb);
  EXPECT_EQ(pb, a.frame(0));
  auto pc = initial;
  for (int t = 0; t < 3; ++t) c.step(pc);
  EXPECT_EQ(pc, pa);
  a.step(pa);
  EXPECT_EQ(pa, a.frame(3));
  b.step(pb);
  EXPECT_EQ(pb, a.frame(1));
}

TEST(TraceMobilityTest, RecordRejectsModelMovingAStationaryNode) {
  // Reports every node stationary but moves node 1 on its third step.
  class Liar final : public MobilityModel {
   public:
    void step(std::vector<Vec2>& positions) override {
      if (++steps_ == 3) positions[1].x += 0.5;
    }
    bool is_stationary(std::size_t) const override { return true; }

   private:
    int steps_ = 0;
  };
  Liar liar;
  EXPECT_THROW(TraceMobility::record(liar, {{1.0, 1.0}, {2.0, 2.0}}, 5),
               ConfigError);
  Liar short_liar;  // never reaches its third step
  const TraceMobility trace =
      TraceMobility::record(short_liar, {{1.0, 1.0}, {2.0, 2.0}}, 2);
  EXPECT_EQ(trace.frames(), 2u);
  EXPECT_TRUE(trace.movers().empty());
  EXPECT_EQ(trace.frame(1), (std::vector<Vec2>{{1.0, 1.0}, {2.0, 2.0}}));
}

TEST(TraceMobilityTest, DefaultConstructedTraceIsEmptyAndSafe) {
  TraceMobility trace;
  EXPECT_EQ(trace.node_count(), 0u);
  EXPECT_EQ(trace.frames(), 0u);
  EXPECT_TRUE(trace.initial().empty());
  EXPECT_TRUE(trace.movers().empty());
  std::vector<Vec2> none;
  trace.step(none);
  TraceMobility copy = trace;
  copy.reset();
  copy.step(none);
  EXPECT_TRUE(none.empty());
  std::vector<Vec2> one{{1.0, 1.0}};
  EXPECT_THROW(trace.step(one), ConfigError);
  snapshot::ByteWriter w;
  trace.save_state(w);
  EXPECT_EQ(w.bytes().size(), trace.state_bytes());
}

// Pinned trajectories on a mixed mask: 2,000 nodes, every third one
// mobile, 300 steps. The digest covers the final positions and the
// model's save_state bytes, so a change to which nodes draw from the RNG,
// or in what order, moves it; a pure speed-up must not. The values come
// from glibc's libm on x86-64 (headings go through cos/sin).
std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

constexpr std::size_t kGoldenNodes = 2000;
const Aabb kGoldenField{{0.0, 0.0}, {1000.0, 1000.0}};

std::vector<bool> every_third_mobile() {
  std::vector<bool> mobile(kGoldenNodes, false);
  for (std::size_t i = 0; i < kGoldenNodes; i += 3) mobile[i] = true;
  return mobile;
}

std::uint64_t golden_digest(MobilityModel& model) {
  Rng rng(0x6011);
  std::vector<Vec2> pos = random_positions(kGoldenNodes, kGoldenField, rng);
  for (int t = 0; t < 300; ++t) model.step(pos);
  snapshot::ByteWriter w;
  for (const Vec2& p : pos) {
    w.f64(p.x);
    w.f64(p.y);
  }
  model.save_state(w);
  return fnv1a(w.bytes());
}

TEST(MobilityGoldenTest, RandomDirectionMixedMask) {
  RandomDirectionMobility model(kGoldenField, every_third_mobile(),
                                {0.5, 3.0, 0.05}, Rng(71));
  EXPECT_EQ(golden_digest(model), 0xb010be31abf7495cull);
}

}  // namespace
}  // namespace agentnet

#include "sim/world.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/mapping_task.hpp"
#include "net/generators.hpp"
#include "net/metrics.hpp"
#include "obs/obs.hpp"

namespace agentnet {
namespace {

const Aabb kArena{{0.0, 0.0}, {100.0, 100.0}};

World make_two_node_world(double drain, double min_scale,
                          std::vector<bool> on_battery) {
  BatteryBank batteries(2, on_battery, {1.0, drain});
  return World(kArena, {{0.0, 0.0}, {30.0, 0.0}},
               RadioModel({40.0, 40.0}, RangeScaling{min_scale}),
               std::move(batteries), std::make_unique<StationaryMobility>(),
               LinkPolicy::kDirected);
}

TEST(WorldTest, InitialGraphBuiltAtConstruction) {
  World world = make_two_node_world(0.0, 0.5, {false, false});
  EXPECT_EQ(world.step(), 0u);
  EXPECT_TRUE(world.graph().has_edge(0, 1));
  EXPECT_TRUE(world.graph().has_edge(1, 0));
}

TEST(WorldTest, AdvanceIncrementsStep) {
  World world = make_two_node_world(0.0, 0.5, {false, false});
  world.advance();
  world.advance();
  EXPECT_EQ(world.step(), 2u);
}

TEST(WorldTest, BatteryDecayBreaksLinksOverTime) {
  // Node 0 on battery, drain 0.1/step, scaling floor 0.5: effective range
  // falls from 40 toward 20, crossing the 30-unit gap at fraction 0.5.
  World world = make_two_node_world(0.1, 0.5, {true, false});
  EXPECT_TRUE(world.graph().has_edge(0, 1));
  for (int t = 0; t < 10; ++t) world.advance();
  // fraction 0 → range 20 < 30: link 0→1 gone, 1→0 (mains) remains.
  EXPECT_FALSE(world.graph().has_edge(0, 1));
  EXPECT_TRUE(world.graph().has_edge(1, 0));
}

TEST(WorldTest, EffectiveRangeTracksBattery) {
  World world = make_two_node_world(0.25, 0.5, {true, false});
  EXPECT_DOUBLE_EQ(world.effective_range(0), 40.0);
  world.advance();
  EXPECT_DOUBLE_EQ(world.effective_range(0), 40.0 * (0.5 + 0.5 * 0.75));
  EXPECT_DOUBLE_EQ(world.effective_range(1), 40.0);
}

TEST(WorldTest, MobilityMovesNodesAndRewiresGraph) {
  Rng rng(3);
  BatteryBank batteries(2, {false, false}, {});
  auto mobility = std::make_unique<RandomDirectionMobility>(
      kArena, std::vector<bool>{true, false},
      RandomDirectionMobility::Params{50.0, 50.0, 0.0}, rng.fork(1));
  World world(kArena, {{10.0, 50.0}, {20.0, 50.0}},
              RadioModel({15.0, 15.0}, RangeScaling{1.0}),
              std::move(batteries), std::move(mobility),
              LinkPolicy::kSymmetricAnd);
  EXPECT_TRUE(world.graph().has_edge(0, 1));
  world.advance();  // node 0 jumps 50 units in one step
  EXPECT_FALSE(world.graph().has_edge(0, 1));
  EXPECT_NE(world.positions()[0], Vec2(10.0, 50.0));
  EXPECT_EQ(world.positions()[1], Vec2(20.0, 50.0));
}

TEST(WorldTest, FrozenWorldNeverChanges) {
  const auto net = paper_mapping_network(1);
  World world = World::frozen(net);
  const Graph before = world.graph();
  EXPECT_EQ(before, net.graph)
      << "frozen world must reproduce the generated graph exactly";
  for (int t = 0; t < 5; ++t) world.advance();
  EXPECT_EQ(world.graph(), before);
}

TEST(WorldTest, RejectsMismatchedSizes) {
  BatteryBank batteries(3, std::vector<bool>(3, false), {});
  EXPECT_THROW(World(kArena, {{0.0, 0.0}, {1.0, 1.0}},
                     RadioModel({10.0, 10.0, 10.0}, RangeScaling{1.0}),
                     std::move(batteries),
                     std::make_unique<StationaryMobility>(),
                     LinkPolicy::kDirected),
               ConfigError);
}

TEST(WorldTest, FixedWorldPinsTheGraph) {
  Graph g(4);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(1, 2);
  g.add_edge(2, 3);
  World world = World::fixed(g);
  EXPECT_EQ(world.graph(), g);
  for (int t = 0; t < 10; ++t) world.advance();
  EXPECT_EQ(world.graph(), g) << "advance() must not touch a fixed graph";
  EXPECT_EQ(world.step(), 10u);
}

TEST(WorldTest, FixedWorldRejectsFlapper) {
  Graph g(2);
  g.add_undirected_edge(0, 1);
  World world = World::fixed(g);
  EXPECT_THROW(world.set_link_flapper(LinkFlapper(0.1, 5, 1)), ConfigError);
}

TEST(WorldTest, FixedWorldRunsMappingTask) {
  // A ring: conscientious agent must walk it end to end.
  Graph ring(12);
  for (NodeId i = 0; i < 12; ++i)
    ring.add_undirected_edge(i, static_cast<NodeId>((i + 1) % 12));
  World world = World::fixed(ring);
  MappingTaskConfig cfg;
  cfg.population = 1;
  cfg.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  const auto result = run_mapping_task(world, cfg, Rng(3));
  EXPECT_TRUE(result.finished);
  EXPECT_GE(result.finishing_time, 11u);
}

TEST(WorldTest, StaticWorldAdvanceDoesZeroTopologyWork) {
  // A pure clock tick on a static world finds an empty dirty set and does
  // no upkeep: no patch, no epoch movement.
  const GeneratedNetwork net = paper_mapping_network(5);
  World world = World::frozen(net);
  const std::uint64_t epoch = world.epoch();
  obs::RunObs slot;
  {
    obs::ObsRunScope scope(slot);
    for (int i = 0; i < 20; ++i) world.advance();
  }
  EXPECT_EQ(slot.counters.value(obs::Counter::kTopoNodesDirty), 0u);
  EXPECT_EQ(slot.counters.value(obs::Counter::kShardTilesDirty), 0u);
  EXPECT_EQ(slot.counters.value(obs::Counter::kTopoFullRebuilds), 0u);
  EXPECT_EQ(world.epoch(), epoch);
  EXPECT_EQ(world.graph(), net.graph);
}

TEST(WorldTest, MobileWorldReportsTopologyWork) {
  // Positive control for the zero-work assertion above: a world with a
  // moving node reports dirty nodes and dirty tiles, never full rebuilds —
  // and the one mobile node occupies exactly one tile per step.
  BatteryBank batteries(2, {false, false}, {1.0, 0.0});
  RandomDirectionMobility::Params movement{1.0, 2.0, 0.1};
  auto mobility = std::make_unique<RandomDirectionMobility>(
      kArena, std::vector<bool>{true, false}, movement, Rng(9));
  World world(kArena, {{10.0, 10.0}, {30.0, 10.0}},
              RadioModel({40.0, 40.0}, RangeScaling{1.0}),
              std::move(batteries), std::move(mobility),
              LinkPolicy::kDirected);
  obs::RunObs slot;
  {
    obs::ObsRunScope scope(slot);
    for (int i = 0; i < 10; ++i) world.advance();
  }
  EXPECT_GE(slot.counters.value(obs::Counter::kTopoNodesDirty), 10u);
  EXPECT_EQ(slot.counters.value(obs::Counter::kShardTilesDirty), 10u);
  EXPECT_EQ(slot.counters.value(obs::Counter::kTopoFullRebuilds), 0u);
}

TEST(WorldTest, NonFiniteRangeQuantumIsRejected) {
  // floor(r / inf) * inf is NaN: an accepted infinite quantum would turn
  // every range into NaN and silently run the world on an edgeless graph.
  for (const char* quantum : {"inf", "nan"}) {
    ASSERT_EQ(::setenv("AGENTNET_TOPO_RANGE_QUANTUM", quantum, 1), 0);
    EXPECT_THROW(make_two_node_world(0.0, 0.5, {false, false}), ConfigError)
        << quantum;
  }
  ASSERT_EQ(::unsetenv("AGENTNET_TOPO_RANGE_QUANTUM"), 0);
}

TEST(WorldTest, SaveStateReservesExactlyItsEncodedSize) {
  // save_state sizes its buffer once from the parts' state_bytes(): a
  // miscount would leave spare capacity or regrow the buffer.
  Rng rng(8);
  const std::size_t n = 30;
  const std::vector<bool> mobile(n, true);
  const std::vector<Vec2> positions = random_positions(n, kArena, rng);
  std::vector<std::unique_ptr<MobilityModel>> models;
  models.push_back(std::make_unique<StationaryMobility>());
  models.push_back(std::make_unique<RandomDirectionMobility>(
      kArena, mobile, RandomDirectionMobility::Params{}, rng.fork(1)));
  RandomDirectionMobility recorded(kArena, mobile, {}, rng.fork(4));
  models.push_back(std::make_unique<TraceMobility>(
      TraceMobility::record(recorded, positions, 5)));
  for (std::size_t m = 0; m < models.size(); ++m) {
    World world(kArena, positions,
                RadioModel(std::vector<double>(n, 20.0), RangeScaling{0.5}),
                BatteryBank(n, mobile, {1.0, 0.01}), std::move(models[m]),
                LinkPolicy::kSymmetricAnd);
    for (int t = 0; t < 2; ++t) {
      snapshot::ByteWriter w;
      world.save_state(w);
      EXPECT_EQ(w.bytes().capacity(), w.bytes().size())
          << "model " << m << " step " << world.step();
      world.advance();
    }
  }
}

}  // namespace
}  // namespace agentnet

// Unit tests for the declarative fault model: plan validation, intensity
// scaling, the environment parser, and the injector's hash-gated weather
// (crash windows, blackouts, burst outages layered on LinkFlapper).
#include "fault/fault_plan.hpp"

#include <cstdlib>
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault_injector.hpp"
#include "fault/watchdog.hpp"
#include "net/graph.hpp"
#include "net/link_noise.hpp"

namespace agentnet {
namespace {

Graph complete_graph(std::size_t n) {
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = 0; v < n; ++v)
      if (u != v) g.add_edge(u, v);
  return g;
}

std::vector<Vec2> grid_positions(std::size_t n, double spacing) {
  std::vector<Vec2> positions(n);
  const std::size_t side = 10;
  for (std::size_t i = 0; i < n; ++i)
    positions[i] = {static_cast<double>(i % side) * spacing,
                    static_cast<double>(i / side) * spacing};
  return positions;
}

TEST(FaultPlanTest, DefaultPlanIsInert) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.any());
  EXPECT_FALSE(plan.topology_faults());
  EXPECT_NO_THROW(plan.validate());
  EXPECT_EQ(plan, FaultPlan{});
}

TEST(FaultPlanTest, AnyDetectsEveryKnob) {
  auto expect_any = [](auto set) {
    FaultPlan plan;
    set(plan);
    EXPECT_TRUE(plan.any());
  };
  expect_any([](FaultPlan& p) { p.agent_loss_probability = 0.1; });
  expect_any([](FaultPlan& p) { p.gateway_respawn_probability = 0.1; });
  expect_any([](FaultPlan& p) { p.node_crash_probability = 0.1; });
  expect_any([](FaultPlan& p) { p.burst_drop_probability = 0.1; });
  expect_any([](FaultPlan& p) { p.exchange_failure_probability = 0.1; });
  expect_any([](FaultPlan& p) { p.blackouts.push_back({{0, 0}, 1, 0, 5}); });
  expect_any([](FaultPlan& p) { p.watchdog_ttl = 5; });
  expect_any([](FaultPlan& p) { p.knowledge_ttl = 5; });
}

TEST(FaultPlanTest, ValidateRejectsOutOfRange) {
  auto bad = [](auto set) {
    FaultPlan plan;
    set(plan);
    EXPECT_THROW(plan.validate(), ConfigError);
  };
  bad([](FaultPlan& p) { p.agent_loss_probability = -0.1; });
  bad([](FaultPlan& p) { p.agent_loss_probability = 1.1; });
  bad([](FaultPlan& p) { p.gateway_respawn_probability = 2.0; });
  bad([](FaultPlan& p) { p.exchange_failure_probability = -1.0; });
  // Crash / burst probability 1.0 would down everything forever.
  bad([](FaultPlan& p) { p.node_crash_probability = 1.0; });
  bad([](FaultPlan& p) { p.burst_drop_probability = 1.0; });
  bad([](FaultPlan& p) {
    p.node_crash_probability = 0.1;
    p.crash_persistence = 0;
  });
  bad([](FaultPlan& p) {
    p.burst_drop_probability = 0.1;
    p.burst_persistence = 0;
  });
  bad([](FaultPlan& p) { p.blackouts.push_back({{0, 0}, -1.0, 0, 5}); });
}

TEST(FaultPlanTest, ScaledZeroIsTheInertPlan) {
  FaultPlan plan;
  plan.agent_loss_probability = 0.3;
  plan.node_crash_probability = 0.2;
  plan.blackouts.push_back({{5, 5}, 3, 10, 20});
  plan.watchdog_ttl = 40;
  EXPECT_EQ(plan.scaled(0.0), FaultPlan{})
      << "the zero point of a degradation sweep must reproduce the "
         "fault-free baseline exactly";
}

TEST(FaultPlanTest, ScaledMultipliesAndClamps) {
  FaultPlan plan;
  plan.agent_loss_probability = 0.4;
  plan.node_crash_probability = 0.3;
  const FaultPlan half = plan.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.agent_loss_probability, 0.2);
  EXPECT_DOUBLE_EQ(half.node_crash_probability, 0.15);
  const FaultPlan huge = plan.scaled(10.0);
  EXPECT_DOUBLE_EQ(huge.agent_loss_probability, 1.0);
  EXPECT_LT(huge.node_crash_probability, 1.0)
      << "crash probability must stay in [0,1) — 1.0 kills every node";
  EXPECT_NO_THROW(huge.validate());
}

TEST(FaultPlanTest, BlackoutWindowAndDisc) {
  const Blackout b{{10.0, 10.0}, 5.0, 20, 10};
  EXPECT_FALSE(b.active(19));
  EXPECT_TRUE(b.active(20));
  EXPECT_TRUE(b.active(29));
  EXPECT_FALSE(b.active(30));
  EXPECT_TRUE(b.covers({10.0, 10.0}));
  EXPECT_TRUE(b.covers({13.0, 14.0}));  // exactly on the rim
  EXPECT_FALSE(b.covers({16.0, 10.0}));
}

TEST(FaultPlanTest, ParseBlackouts) {
  const auto zones = parse_blackouts("100:200:50:10:30;0:0:5:0:1");
  ASSERT_EQ(zones.size(), 2u);
  EXPECT_DOUBLE_EQ(zones[0].center.x, 100.0);
  EXPECT_DOUBLE_EQ(zones[0].center.y, 200.0);
  EXPECT_DOUBLE_EQ(zones[0].radius, 50.0);
  EXPECT_EQ(zones[0].start, 10u);
  EXPECT_EQ(zones[0].duration, 30u);
  EXPECT_EQ(zones[1].duration, 1u);
  EXPECT_TRUE(parse_blackouts("").empty());
  EXPECT_THROW(parse_blackouts("1:2:3:4"), ConfigError);
  EXPECT_THROW(parse_blackouts("a:b:c:d:e"), ConfigError);
  EXPECT_THROW(parse_blackouts("1:2:3:4:5:6"), ConfigError);
  EXPECT_THROW(parse_blackouts("1:2:3:4:5:"), ConfigError);
  EXPECT_THROW(parse_blackouts("1:2:3:-1:5"), ConfigError);
  // Every field is finite, and a step count fits a size_t exactly.
  EXPECT_THROW(parse_blackouts("inf:2:3:4:5"), ConfigError);
  EXPECT_THROW(parse_blackouts("1:2:nan:4:5"), ConfigError);
  EXPECT_THROW(parse_blackouts("1:2:3:4:1e300"), ConfigError);
}

TEST(FaultPlanTest, FromEnvReadsTheFullTable) {
  setenv("AGENTNET_FAULT_AGENT_LOSS", "0.05", 1);
  setenv("AGENTNET_FAULT_RESPAWN", "0.2", 1);
  setenv("AGENTNET_FAULT_NODE_CRASH", "0.01", 1);
  setenv("AGENTNET_FAULT_CRASH_PERSISTENCE", "25", 1);
  setenv("AGENTNET_FAULT_BURST_DROP", "0.02", 1);
  setenv("AGENTNET_FAULT_BURST_PERSISTENCE", "3", 1);
  setenv("AGENTNET_FAULT_EXCHANGE", "0.1", 1);
  setenv("AGENTNET_FAULT_BLACKOUTS", "500:500:100:50:60", 1);
  setenv("AGENTNET_FAULT_SEED", "99", 1);
  setenv("AGENTNET_FAULT_WATCHDOG_TTL", "40", 1);
  setenv("AGENTNET_FAULT_KNOWLEDGE_TTL", "80", 1);
  setenv("AGENTNET_FAULT_ROUTE_AGING", "false", 1);
  const FaultPlan plan = FaultPlan::from_env();
  unsetenv("AGENTNET_FAULT_AGENT_LOSS");
  unsetenv("AGENTNET_FAULT_RESPAWN");
  unsetenv("AGENTNET_FAULT_NODE_CRASH");
  unsetenv("AGENTNET_FAULT_CRASH_PERSISTENCE");
  unsetenv("AGENTNET_FAULT_BURST_DROP");
  unsetenv("AGENTNET_FAULT_BURST_PERSISTENCE");
  unsetenv("AGENTNET_FAULT_EXCHANGE");
  unsetenv("AGENTNET_FAULT_BLACKOUTS");
  unsetenv("AGENTNET_FAULT_SEED");
  unsetenv("AGENTNET_FAULT_WATCHDOG_TTL");
  unsetenv("AGENTNET_FAULT_KNOWLEDGE_TTL");
  unsetenv("AGENTNET_FAULT_ROUTE_AGING");
  EXPECT_DOUBLE_EQ(plan.agent_loss_probability, 0.05);
  EXPECT_DOUBLE_EQ(plan.gateway_respawn_probability, 0.2);
  EXPECT_DOUBLE_EQ(plan.node_crash_probability, 0.01);
  EXPECT_EQ(plan.crash_persistence, 25u);
  EXPECT_DOUBLE_EQ(plan.burst_drop_probability, 0.02);
  EXPECT_EQ(plan.burst_persistence, 3u);
  EXPECT_DOUBLE_EQ(plan.exchange_failure_probability, 0.1);
  ASSERT_EQ(plan.blackouts.size(), 1u);
  EXPECT_EQ(plan.blackouts[0].start, 50u);
  EXPECT_EQ(plan.weather_seed, 99u);
  EXPECT_EQ(plan.watchdog_ttl, 40u);
  EXPECT_EQ(plan.knowledge_ttl, 80u);
  EXPECT_FALSE(plan.age_crashed_routes);
  EXPECT_EQ(FaultPlan::from_env(), FaultPlan{})
      << "an empty environment must yield the inert plan";
}

TEST(FaultInjectorTest, InertPlanReturnsTheGraphItself) {
  const Graph g = complete_graph(10);
  FaultInjector injector(FaultPlan{}, Rng(1).fork(0xFA11));
  const Graph& live = injector.live_graph(g, {}, 0);
  EXPECT_EQ(&live, &g) << "no topology faults: no copy, no mask";
  EXPECT_FALSE(injector.down(3));
}

TEST(FaultInjectorTest, CrashWindowsHoldForWholePersistence) {
  FaultPlan plan;
  plan.node_crash_probability = 0.3;
  plan.crash_persistence = 10;
  FaultInjector injector(plan, Rng(1).fork(0xFA11));
  for (NodeId v = 0; v < 50; ++v) {
    const bool at0 = injector.node_crashed(v, 0);
    for (std::size_t step = 1; step < 10; ++step)
      ASSERT_EQ(injector.node_crashed(v, step), at0)
          << "crash state must hold within a window";
  }
  int changed = 0;
  for (NodeId v = 0; v < 200; ++v)
    if (injector.node_crashed(v, 0) != injector.node_crashed(v, 10))
      ++changed;
  EXPECT_GT(changed, 20) << "new window, new crash draw";
}

TEST(FaultInjectorTest, CrashRateMatchesProbability) {
  FaultPlan plan;
  plan.node_crash_probability = 0.2;
  plan.crash_persistence = 1;
  FaultInjector injector(plan, Rng(1).fork(0xFA11));
  std::size_t crashed = 0, total = 0;
  for (NodeId v = 0; v < 500; ++v)
    for (std::size_t step = 0; step < 20; ++step) {
      ++total;
      if (injector.node_crashed(v, step)) ++crashed;
    }
  EXPECT_NEAR(static_cast<double>(crashed) / static_cast<double>(total), 0.2,
              0.01);
}

TEST(FaultInjectorTest, CrashedNodesLoseAllEdges) {
  const Graph g = complete_graph(30);
  FaultPlan plan;
  plan.node_crash_probability = 0.25;
  plan.crash_persistence = 5;
  FaultInjector injector(plan, Rng(1).fork(0xFA11));
  const Graph& live = injector.live_graph(g, {}, 7);
  for (NodeId u = 0; u < 30; ++u)
    for (NodeId v = 0; v < 30; ++v) {
      if (u == v) continue;
      const bool expect_up =
          !injector.node_crashed(u, 7) && !injector.node_crashed(v, 7);
      ASSERT_EQ(live.has_edge(u, v), expect_up) << u << "->" << v;
      ASSERT_EQ(injector.down(u), injector.node_crashed(u, 7));
    }
}

TEST(FaultInjectorTest, BlackoutPartitionsTheDisc) {
  const Graph g = complete_graph(100);
  const auto positions = grid_positions(100, 10.0);
  FaultPlan plan;
  plan.blackouts.push_back({{0.0, 0.0}, 25.0, 5, 10});
  FaultInjector injector(plan, Rng(1).fork(0xFA11));
  // Before the window: everything up.
  EXPECT_EQ(injector.live_graph(g, positions, 4).edge_count(),
            g.edge_count());
  // Inside: every node within 25 of the origin is cut off.
  const Graph& live = injector.live_graph(g, positions, 5);
  for (NodeId v = 0; v < 100; ++v) {
    const bool in_disc = plan.blackouts[0].covers(positions[v]);
    EXPECT_EQ(injector.down(v), in_disc);
    EXPECT_EQ(live.out_neighbors(v).empty(), in_disc);
  }
  // After: full recovery.
  EXPECT_EQ(injector.live_graph(g, positions, 15).edge_count(),
            g.edge_count());
}

TEST(FaultInjectorTest, BlackoutsNeedPositions) {
  const Graph g = complete_graph(10);
  FaultPlan plan;
  plan.blackouts.push_back({{0.0, 0.0}, 1e9, 0, 100});
  FaultInjector injector(plan, Rng(1).fork(0xFA11));
  EXPECT_EQ(injector.live_graph(g, {}, 0).edge_count(), g.edge_count())
      << "worlds without geometry ignore blackouts";
}

TEST(FaultInjectorTest, BurstOutagesMatchAnEquivalentFlapper) {
  const Graph g = complete_graph(25);
  FaultPlan plan;
  plan.burst_drop_probability = 0.3;
  plan.burst_persistence = 4;
  plan.weather_seed = 77;
  FaultInjector injector(plan, Rng(1).fork(0xFA11));
  // The injector's burst layer is a LinkFlapper seeded weather_seed^0xB125.
  const LinkFlapper reference(0.3, 4, 77 ^ 0xB125ULL);
  for (std::size_t step : {0u, 3u, 4u, 11u}) {
    const Graph& live = injector.live_graph(g, {}, step);
    for (NodeId u = 0; u < 25; ++u)
      for (NodeId v = 0; v < 25; ++v) {
        if (u == v) continue;
        ASSERT_EQ(live.has_edge(u, v), !reference.down(u, v, step))
            << u << "->" << v << " at step " << step;
      }
  }
}

TEST(FaultInjectorTest, EventDrawsAreSequentialAndSeedDeterministic) {
  FaultPlan plan;
  plan.agent_loss_probability = 0.5;
  plan.exchange_failure_probability = 0.5;
  FaultInjector a(plan, Rng(9).fork(0xFA11));
  FaultInjector b(plan, Rng(9).fork(0xFA11));
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(a.lose_in_transit(), b.lose_in_transit());
    ASSERT_EQ(a.corrupt_exchange(), b.corrupt_exchange());
    ASSERT_EQ(a.pick(17), b.pick(17));
  }
}

TEST(AgentWatchdogTest, ExpiresOnlyAfterTtlSinceLastBeat) {
  AgentWatchdog watchdog(10, 3);
  EXPECT_TRUE(watchdog.enabled());
  EXPECT_EQ(watchdog.slots(), 3u);
  EXPECT_FALSE(watchdog.expired(0, 10));
  EXPECT_TRUE(watchdog.expired(0, 11));
  watchdog.beat(0, 11);
  EXPECT_FALSE(watchdog.expired(0, 21));
  EXPECT_TRUE(watchdog.expired(0, 22));
  EXPECT_TRUE(watchdog.expired(1, 22)) << "slots age independently";
}

TEST(AgentWatchdogTest, DisabledWatchdogNeverExpires) {
  AgentWatchdog watchdog(0, 2);
  EXPECT_FALSE(watchdog.enabled());
  EXPECT_FALSE(watchdog.expired(0, 1000000));
}

}  // namespace
}  // namespace agentnet

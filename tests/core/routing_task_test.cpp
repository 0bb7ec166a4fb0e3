#include "core/routing_task.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "net/metrics.hpp"

namespace agentnet {
namespace {

RoutingScenarioParams small_params() {
  RoutingScenarioParams p;
  p.node_count = 80;
  p.gateway_count = 5;
  p.bounds = {{0.0, 0.0}, {500.0, 500.0}};
  p.node_range = 95.0;
  p.trace_steps = 120;
  return p;
}

RoutingTaskConfig small_task(RoutingPolicy policy, int population = 30) {
  RoutingTaskConfig cfg;
  cfg.population = population;
  cfg.agent.policy = policy;
  cfg.agent.history_size = 10;
  cfg.steps = 120;
  cfg.measure_from = 60;
  return cfg;
}

TEST(RoutingScenarioTest, MasksRespectParameters) {
  const RoutingScenario scenario(small_params(), 1);
  std::size_t gateways = 0, mobile = 0;
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_gateway()[i]) {
      ++gateways;
      EXPECT_FALSE(scenario.mobile()[i]) << "gateways are stationary";
    }
    if (scenario.mobile()[i]) ++mobile;
  }
  EXPECT_EQ(gateways, 5u);
  EXPECT_EQ(mobile, 40u);  // half of 80
}

TEST(RoutingScenarioTest, WorldsAreReproducible) {
  const RoutingScenario scenario(small_params(), 2);
  World a = scenario.make_world();
  World b = scenario.make_world();
  EXPECT_EQ(a.graph(), b.graph());
  for (int t = 0; t < 20; ++t) {
    a.advance();
    b.advance();
    ASSERT_EQ(a.positions(), b.positions()) << "step " << t;
    ASSERT_EQ(a.graph(), b.graph()) << "step " << t;
  }
}

TEST(RoutingScenarioTest, InterleavedWorldsMatchALoneWorld) {
  // Every world replays the scenario's one shared recording with its own
  // cursor; advancing eight of them in turn must not disturb any.
  const RoutingScenario scenario(small_params(), 2);
  World lone = scenario.make_world();
  std::vector<World> worlds;
  for (int w = 0; w < 8; ++w) worlds.push_back(scenario.make_world());
  // Past the recording's end too, where playback holds the last frame.
  const std::size_t steps = scenario.params().trace_steps + 5;
  for (std::size_t t = 0; t < steps; ++t) {
    lone.advance();
    // Staggered order: world w advances w-th, then the rest.
    for (std::size_t k = 0; k < worlds.size(); ++k) {
      World& world = worlds[(k + t) % worlds.size()];
      world.advance();
      ASSERT_EQ(world.positions(), lone.positions()) << "step " << t;
      ASSERT_EQ(world.graph(), lone.graph()) << "step " << t;
    }
  }
}

TEST(RoutingScenarioTest, PartsConstructorValidatesTrace) {
  const auto params = small_params();
  const RoutingScenario base(params, 3);
  const auto rebuild = [&](const std::vector<Vec2>& initial,
                           const std::vector<bool>& mobile,
                           TraceMobility trace) {
    return RoutingScenario(params, initial, base.base_ranges(),
                           base.is_gateway(), mobile, std::move(trace));
  };
  // The scenario's own parts are accepted.
  EXPECT_NO_THROW(
      rebuild(base.initial_positions(), base.mobile(), base.trace()));
  const auto record = [&](std::vector<Vec2> initial,
                          const std::vector<bool>& mobile) {
    RandomDirectionMobility model(params.bounds, mobile, params.movement,
                                  Rng(4));
    return TraceMobility::record(model, std::move(initial), 5);
  };
  // Wrong node count.
  std::vector<Vec2> fewer = base.initial_positions();
  fewer.pop_back();
  std::vector<bool> fewer_mobile = base.mobile();
  fewer_mobile.pop_back();
  EXPECT_THROW(rebuild(base.initial_positions(), base.mobile(),
                       record(fewer, fewer_mobile)),
               ConfigError);
  EXPECT_THROW(
      rebuild(base.initial_positions(), base.mobile(), TraceMobility{}),
      ConfigError);
  // A trace starting elsewhere.
  std::vector<Vec2> shifted = base.initial_positions();
  shifted[0].x += 1.0;
  EXPECT_THROW(rebuild(base.initial_positions(), base.mobile(),
                       record(shifted, base.mobile())),
               ConfigError);
  // A trace whose stationary mask is not !mobile.
  std::size_t ordinary = 0;
  while (base.is_gateway()[ordinary] || base.mobile()[ordinary]) ++ordinary;
  std::vector<bool> more_mobile = base.mobile();
  more_mobile[ordinary] = true;
  EXPECT_THROW(rebuild(base.initial_positions(), base.mobile(),
                       record(base.initial_positions(), more_mobile)),
               ConfigError);
}

TEST(RoutingScenarioTest, TopologyActuallyChanges) {
  const RoutingScenario scenario(small_params(), 3);
  World world = scenario.make_world();
  const Graph initial = world.graph();
  for (int t = 0; t < 60; ++t) world.advance();
  EXPECT_NE(world.graph(), initial) << "a MANET must rewire over time";
}

TEST(RoutingScenarioTest, GatewaysKeepFullRange) {
  const auto params = small_params();
  const RoutingScenario scenario(params, 4);
  World world = scenario.make_world();
  for (int t = 0; t < 100; ++t) world.advance();
  for (std::size_t i = 0; i < scenario.node_count(); ++i) {
    if (scenario.is_gateway()[i]) {
      EXPECT_GE(world.effective_range(static_cast<NodeId>(i)),
                params.node_range * params.gateway_range_boost *
                    (1.0 - params.range_spread) - 1e-9);
    }
  }
}

TEST(RoutingScenarioTest, RejectsBadConfig) {
  auto p = small_params();
  p.gateway_count = p.node_count;
  EXPECT_THROW(RoutingScenario(p, 1), ConfigError);
  p = small_params();
  p.mobile_fraction = 1.5;
  EXPECT_THROW(RoutingScenario(p, 1), ConfigError);
  p = small_params();
  p.mobile_fraction = 1.0;  // leaves no stationary slot for 5 gateways
  EXPECT_THROW(RoutingScenario(p, 1), ConfigError);
}

TEST(RoutingTaskTest, ProducesFullConnectivityTrace) {
  const RoutingScenario scenario(small_params(), 5);
  const auto result = run_routing_task(
      scenario, small_task(RoutingPolicy::kOldestNode), Rng(1));
  ASSERT_EQ(result.connectivity.size(), 120u);
  for (double c : result.connectivity) {
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
  }
}

TEST(RoutingTaskTest, ConnectivityRisesFromColdStart) {
  const RoutingScenario scenario(small_params(), 6);
  const auto result = run_routing_task(
      scenario, small_task(RoutingPolicy::kOldestNode, 40), Rng(2));
  const double early = result.connectivity[0];
  EXPECT_GT(result.mean_connectivity, early)
      << "network starts unrouted and converges upward";
  EXPECT_GT(result.mean_connectivity, 0.2);
}

TEST(RoutingTaskTest, AgentsBoundedByOracle) {
  const RoutingScenario scenario(small_params(), 7);
  auto cfg = small_task(RoutingPolicy::kOldestNode, 40);
  cfg.record_oracle = true;
  const auto result = run_routing_task(scenario, cfg, Rng(3));
  ASSERT_EQ(result.oracle.size(), result.connectivity.size());
  for (std::size_t t = 0; t < result.connectivity.size(); ++t)
    EXPECT_LE(result.connectivity[t], result.oracle[t] + 1e-12)
        << "step " << t;
}

TEST(RoutingTaskTest, DeterministicForSameSeed) {
  const RoutingScenario scenario(small_params(), 8);
  const auto cfg = small_task(RoutingPolicy::kOldestNode);
  const auto a = run_routing_task(scenario, cfg, Rng(4));
  const auto b = run_routing_task(scenario, cfg, Rng(4));
  EXPECT_EQ(a.connectivity, b.connectivity);
}

TEST(RoutingTaskTest, MorePopulationHigherConnectivity) {
  const RoutingScenario scenario(small_params(), 9);
  double few = 0.0, many = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    few += run_routing_task(scenario, small_task(RoutingPolicy::kOldestNode, 4),
                            Rng(10 + s))
               .mean_connectivity;
    many += run_routing_task(
                scenario, small_task(RoutingPolicy::kOldestNode, 60),
                Rng(10 + s))
                .mean_connectivity;
  }
  EXPECT_GT(many, few);
}

TEST(RoutingTaskTest, OldestNodeBeatsRandom) {
  const RoutingScenario scenario(small_params(), 10);
  double random_sum = 0.0, oldest_sum = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    random_sum += run_routing_task(
                      scenario, small_task(RoutingPolicy::kRandom, 20),
                      Rng(20 + s))
                      .mean_connectivity;
    oldest_sum += run_routing_task(
                      scenario, small_task(RoutingPolicy::kOldestNode, 20),
                      Rng(20 + s))
                      .mean_connectivity;
  }
  EXPECT_GT(oldest_sum, random_sum);
}

TEST(RoutingTaskTest, LongerHistoryHigherConnectivity) {
  const RoutingScenario scenario(small_params(), 11);
  auto short_cfg = small_task(RoutingPolicy::kOldestNode, 25);
  short_cfg.agent.history_size = 3;
  auto long_cfg = small_task(RoutingPolicy::kOldestNode, 25);
  long_cfg.agent.history_size = 25;
  double short_sum = 0.0, long_sum = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    short_sum += run_routing_task(scenario, short_cfg, Rng(30 + s))
                     .mean_connectivity;
    long_sum += run_routing_task(scenario, long_cfg, Rng(30 + s))
                    .mean_connectivity;
  }
  EXPECT_GT(long_sum, short_sum);
}

TEST(RoutingTaskTest, CommunicationHelpsRandomAgents) {
  const RoutingScenario scenario(small_params(), 12);
  auto base = small_task(RoutingPolicy::kRandom, 25);
  auto talk = base;
  talk.agent.communicate = true;
  double base_sum = 0.0, talk_sum = 0.0;
  for (std::uint64_t s = 0; s < 4; ++s) {
    base_sum += run_routing_task(scenario, base, Rng(40 + s))
                    .mean_connectivity;
    talk_sum += run_routing_task(scenario, talk, Rng(40 + s))
                    .mean_connectivity;
  }
  EXPECT_GT(talk_sum, base_sum);
}

TEST(RoutingTaskTest, TrafficStatsPresentWhenRequested) {
  const RoutingScenario scenario(small_params(), 14);
  auto cfg = small_task(RoutingPolicy::kOldestNode, 40);
  cfg.traffic = true;
  const auto result = run_routing_task(scenario, cfg, Rng(5));
  ASSERT_TRUE(result.traffic_stats.has_value());
  const FlowTrafficStats& ts = *result.traffic_stats;
  EXPECT_GT(ts.generated, 0u);
  EXPECT_GT(ts.delivered, 0u);
  EXPECT_EQ(ts.generated, ts.delivered + ts.dropped() + ts.in_flight);
  EXPECT_GT(ts.delivery_ratio(), 0.1);
}

TEST(RoutingTaskTest, NoTrafficStatsByDefault) {
  const RoutingScenario scenario(small_params(), 15);
  const auto result =
      run_routing_task(scenario, small_task(RoutingPolicy::kRandom), Rng(6));
  EXPECT_FALSE(result.traffic_stats.has_value());
}

TEST(RoutingTaskTest, DeliveryTracksConnectivity) {
  const RoutingScenario scenario(small_params(), 16);
  auto good = small_task(RoutingPolicy::kOldestNode, 50);
  good.traffic = true;
  auto poor = small_task(RoutingPolicy::kOldestNode, 5);
  poor.traffic = true;
  double good_ratio = 0.0, poor_ratio = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    good_ratio +=
        run_routing_task(scenario, good, Rng(60 + s)).traffic_stats->delivery_ratio();
    poor_ratio +=
        run_routing_task(scenario, poor, Rng(60 + s)).traffic_stats->delivery_ratio();
  }
  EXPECT_GT(good_ratio, poor_ratio);
}

TEST(RoutingTaskTest, MigrationBytesScaleWithHistory) {
  const RoutingScenario scenario(small_params(), 17);
  auto small_hist = small_task(RoutingPolicy::kOldestNode, 30);
  small_hist.agent.history_size = 2;
  auto big_hist = small_task(RoutingPolicy::kOldestNode, 30);
  big_hist.agent.history_size = 40;
  const auto a = run_routing_task(scenario, small_hist, Rng(7));
  const auto b = run_routing_task(scenario, big_hist, Rng(7));
  EXPECT_GT(a.migration_bytes, 0u);
  EXPECT_GT(b.migration_bytes, a.migration_bytes)
      << "bigger carried history must cost more bytes per hop";
}

TEST(RoutingTaskTest, HeterogeneousRosterRuns) {
  const RoutingScenario scenario(small_params(), 25);
  RoutingTaskConfig cfg;
  cfg.steps = 120;
  cfg.measure_from = 60;
  RoutingAgentConfig oldest;
  oldest.policy = RoutingPolicy::kOldestNode;
  RoutingAgentConfig chatty = oldest;
  chatty.communicate = true;
  RoutingAgentConfig walker;
  walker.policy = RoutingPolicy::kRandom;
  cfg.team = {oldest, oldest, chatty, chatty, walker, walker, walker,
              oldest, chatty, walker};
  const auto result = run_routing_task(scenario, cfg, Rng(12));
  EXPECT_EQ(result.final_population, 10u);
  EXPECT_GT(result.mean_connectivity, 0.1);
}

TEST(RoutingTaskTest, LonelyCommunicatorChangesNothing) {
  // A single communicating agent has nobody to talk to: results must be
  // identical to the same roster with communication off.
  const RoutingScenario scenario(small_params(), 26);
  RoutingTaskConfig silent;
  silent.steps = 100;
  silent.measure_from = 50;
  silent.team.assign(8, RoutingAgentConfig{});
  auto one_talker = silent;
  one_talker.team[3].communicate = true;
  const auto a = run_routing_task(scenario, silent, Rng(13));
  const auto b = run_routing_task(scenario, one_talker, Rng(13));
  EXPECT_EQ(a.connectivity, b.connectivity);
}

TEST(RoutingTaskTest, NoFaultsByDefault) {
  const RoutingScenario scenario(small_params(), 18);
  const auto result =
      run_routing_task(scenario, small_task(RoutingPolicy::kOldestNode),
                       Rng(8));
  EXPECT_EQ(result.agents_lost, 0u);
  EXPECT_EQ(result.agents_respawned, 0u);
  EXPECT_EQ(result.final_population, 30u);
}

TEST(RoutingTaskTest, AgentLossShrinksPopulation) {
  const RoutingScenario scenario(small_params(), 19);
  auto cfg = small_task(RoutingPolicy::kOldestNode, 30);
  cfg.faults.agent_loss_probability = 0.02;
  const auto result = run_routing_task(scenario, cfg, Rng(9));
  EXPECT_GT(result.agents_lost, 0u);
  EXPECT_LT(result.final_population, 30u);
  EXPECT_EQ(result.final_population + result.agents_lost, 30u);
}

TEST(RoutingTaskTest, TotalLossDegradesButDoesNotCrash) {
  const RoutingScenario scenario(small_params(), 20);
  auto cfg = small_task(RoutingPolicy::kOldestNode, 10);
  cfg.faults.agent_loss_probability = 0.5;  // brutal: everyone dies early
  const auto result = run_routing_task(scenario, cfg, Rng(10));
  EXPECT_EQ(result.final_population, 0u);
  ASSERT_EQ(result.connectivity.size(), 120u);
  // With no agents and a 30-step freshness window, late connectivity must
  // collapse to (at most) the bare gateways.
  EXPECT_LT(result.connectivity.back(), 0.2);
}

TEST(RoutingTaskTest, LossDegradesConnectivityMonotonically) {
  const RoutingScenario scenario(small_params(), 21);
  double healthy = 0.0, lossy = 0.0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    auto cfg = small_task(RoutingPolicy::kOldestNode, 30);
    healthy += run_routing_task(scenario, cfg, Rng(70 + s)).mean_connectivity;
    cfg.faults.agent_loss_probability = 0.05;
    lossy += run_routing_task(scenario, cfg, Rng(70 + s)).mean_connectivity;
  }
  EXPECT_GT(healthy, lossy);
}

TEST(RoutingTaskTest, RespawnRecoversFromLoss) {
  const RoutingScenario scenario(small_params(), 22);
  auto lossy = small_task(RoutingPolicy::kOldestNode, 30);
  lossy.faults.agent_loss_probability = 0.05;
  auto healed = lossy;
  healed.faults.gateway_respawn_probability = 0.5;
  double lossy_sum = 0.0, healed_sum = 0.0;
  std::size_t healed_final = 0;
  for (std::uint64_t s = 0; s < 3; ++s) {
    lossy_sum += run_routing_task(scenario, lossy, Rng(80 + s))
                     .mean_connectivity;
    const auto r = run_routing_task(scenario, healed, Rng(80 + s));
    healed_sum += r.mean_connectivity;
    healed_final = r.final_population;
    EXPECT_GT(r.agents_respawned, 0u);
  }
  EXPECT_GT(healed_sum, lossy_sum);
  EXPECT_GT(healed_final, 10u) << "respawn should hold population up";
}

TEST(RoutingTaskTest, PopulationNeverExceedsTarget) {
  const RoutingScenario scenario(small_params(), 23);
  auto cfg = small_task(RoutingPolicy::kOldestNode, 20);
  cfg.faults.agent_loss_probability = 0.01;
  cfg.faults.gateway_respawn_probability = 1.0;  // eager respawn
  const auto result = run_routing_task(scenario, cfg, Rng(11));
  EXPECT_LE(result.final_population, 20u);
}

TEST(RoutingTaskTest, RejectsBadFaultProbabilities) {
  const RoutingScenario scenario(small_params(), 24);
  auto cfg = small_task(RoutingPolicy::kRandom);
  cfg.faults.agent_loss_probability = 1.5;
  EXPECT_THROW(run_routing_task(scenario, cfg, Rng(1)), ConfigError);
  cfg = small_task(RoutingPolicy::kRandom);
  cfg.faults.gateway_respawn_probability = -0.1;
  EXPECT_THROW(run_routing_task(scenario, cfg, Rng(1)), ConfigError);
}

TEST(RoutingTaskTest, RejectsBadMeasureWindow) {
  const RoutingScenario scenario(small_params(), 13);
  auto cfg = small_task(RoutingPolicy::kRandom);
  cfg.measure_from = cfg.steps;
  EXPECT_THROW(run_routing_task(scenario, cfg, Rng(1)), ConfigError);
}

}  // namespace
}  // namespace agentnet

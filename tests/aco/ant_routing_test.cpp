#include "aco/ant_routing.hpp"
#include "aco/ant_routing_task.hpp"

#include <gtest/gtest.h>

#include <span>

#include "common/error.hpp"
#include "experiments/paper.hpp"
#include "routing/connectivity.hpp"

namespace agentnet {
namespace {

// Line 0(gw)-1-2-3-4, bidirectional.
struct LineWorld {
  Graph graph{5};
  std::vector<bool> is_gateway{true, false, false, false, false};
  LineWorld() {
    for (NodeId i = 0; i + 1 < 5; ++i) graph.add_undirected_edge(i, i + 1);
  }
};

AntRoutingConfig eager() {
  AntRoutingConfig cfg;
  cfg.launch_probability = 1.0;
  return cfg;
}

TEST(AntRoutingTest, RejectsBadConfig) {
  AntRoutingConfig bad;
  bad.launch_probability = 2.0;
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(4, false), bad, Rng(1)),
               ConfigError);
  bad = AntRoutingConfig{};
  bad.evaporation = 1.0;
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(4, false), bad, Rng(1)),
               ConfigError);
  bad = AntRoutingConfig{};
  bad.exploration = 0.0;
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(4, false), bad, Rng(1)),
               ConfigError);
  EXPECT_THROW(AntRoutingSystem(4, std::vector<bool>(3, false),
                                AntRoutingConfig{}, Rng(1)),
               ConfigError);
}

TEST(AntRoutingTest, PheromoneStartsEmpty) {
  LineWorld w;
  AntRoutingSystem system(5, w.is_gateway, eager(), Rng(1));
  for (NodeId u = 0; u < 5; ++u)
    for (NodeId v = 0; v < 5; ++v)
      EXPECT_DOUBLE_EQ(system.pheromone(u, v), 0.0);
  EXPECT_FALSE(system.snapshot_tables(0).entry(1).valid());
}

TEST(AntRoutingTest, ConvergesToGatewayRoutesOnLine) {
  LineWorld w;
  AntRoutingSystem system(5, w.is_gateway, eager(), Rng(2));
  for (std::size_t t = 0; t < 200; ++t) system.step(w.graph, t);
  // Every node's strongest pheromone must point toward the gateway.
  EXPECT_GT(system.pheromone(1, 0), system.pheromone(1, 2));
  EXPECT_GT(system.pheromone(2, 1), system.pheromone(2, 3));
  EXPECT_GT(system.pheromone(3, 2), system.pheromone(3, 4));
  const RoutingTables tables = system.snapshot_tables(200);
  const auto conn = measure_connectivity(w.graph, tables, w.is_gateway);
  EXPECT_EQ(conn.connected, 5u);
}

TEST(AntRoutingTest, AntsCompleteRoundTrips) {
  LineWorld w;
  AntRoutingSystem system(5, w.is_gateway, eager(), Rng(3));
  for (std::size_t t = 0; t < 100; ++t) system.step(w.graph, t);
  EXPECT_GT(system.ants_launched(), 0u);
  EXPECT_GT(system.ants_completed(), 0u);
  EXPECT_LE(system.ants_completed(), system.ants_launched());
  EXPECT_GT(system.ant_hops(), system.ants_completed());
  EXPECT_GT(system.control_bytes(), system.ant_hops() * 16);
}

TEST(AntRoutingTest, EvaporationFadesStaleRoutes) {
  LineWorld w;
  auto cfg = eager();
  cfg.evaporation = 0.2;
  AntRoutingSystem system(5, w.is_gateway, cfg, Rng(4));
  for (std::size_t t = 0; t < 100; ++t) system.step(w.graph, t);
  const double before = system.pheromone(1, 0);
  ASSERT_GT(before, 0.0);
  // Cut node 1 off entirely; no reinforcement can reach it, so its
  // pheromone must decay toward zero.
  Graph cut(5);
  cut.add_undirected_edge(2, 3);
  cut.add_undirected_edge(3, 4);
  auto quiet = cfg;
  (void)quiet;
  for (std::size_t t = 100; t < 300; ++t) system.step(cut, t);
  EXPECT_LT(system.pheromone(1, 0), before * 0.01);
}

TEST(AntRoutingTest, DeadEndAntsDie) {
  // Star with no gateway anywhere: every ant eventually dies, none complete.
  Graph g(4);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(0, 2);
  g.add_undirected_edge(0, 3);
  AntRoutingSystem system(4, std::vector<bool>(4, false), eager(), Rng(5));
  for (std::size_t t = 0; t < 100; ++t) system.step(g, t);
  EXPECT_EQ(system.ants_completed(), 0u);
  // Loop avoidance kills ants fast; the population must not grow without
  // bound.
  EXPECT_LT(system.active_ants(), 4096u);
}

TEST(AntRoutingTest, TtlBoundsForwardWalks) {
  LineWorld w;
  auto cfg = eager();
  cfg.ant_ttl = 1;  // only the gateway's direct neighbour can ever succeed
  AntRoutingSystem system(5, w.is_gateway, cfg, Rng(6));
  for (std::size_t t = 0; t < 100; ++t) system.step(w.graph, t);
  EXPECT_GT(system.pheromone(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(system.pheromone(3, 2), 0.0);
}

TEST(AntRoutingTest, MaxAntsCapsPopulation) {
  LineWorld w;
  auto cfg = eager();
  cfg.max_ants = 3;
  AntRoutingSystem system(5, w.is_gateway, cfg, Rng(7));
  for (std::size_t t = 0; t < 50; ++t) {
    system.step(w.graph, t);
    EXPECT_LE(system.active_ants(), 3u);
  }
}

TEST(AntRoutingTest, DeterministicForSameSeed) {
  LineWorld w;
  AntRoutingSystem a(5, w.is_gateway, eager(), Rng(8));
  AntRoutingSystem b(5, w.is_gateway, eager(), Rng(8));
  for (std::size_t t = 0; t < 100; ++t) {
    a.step(w.graph, t);
    b.step(w.graph, t);
  }
  EXPECT_EQ(a.ant_hops(), b.ant_hops());
  for (NodeId u = 0; u < 5; ++u)
    for (NodeId v = 0; v < 5; ++v)
      EXPECT_DOUBLE_EQ(a.pheromone(u, v), b.pheromone(u, v));
}

TEST(AntRoutingTest, GatewaysDoNotLaunch) {
  Graph g(2);
  g.add_undirected_edge(0, 1);
  AntRoutingSystem system(2, {true, true}, eager(), Rng(9));
  for (std::size_t t = 0; t < 20; ++t) system.step(g, t);
  EXPECT_EQ(system.ants_launched(), 0u);
}

// Pinned colony state after 300 steps: an FNV-1a digest of the save_state
// bytes (pheromone rows, in-flight ants, RNG) plus the overhead counters.
// Any change to candidate order, sampling weights, the RNG draw sequence
// or loop avoidance moves these values; a pure speed-up must not.
struct ColonyPin {
  std::uint64_t digest;
  std::size_t ant_hops;
  std::size_t control_bytes;
  std::size_t ants_launched;
  std::size_t ants_completed;
};

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

ColonyPin pin_of(const AntRoutingSystem& system) {
  snapshot::ByteWriter w;
  system.save_state(w);
  return {fnv1a(w.bytes()), system.ant_hops(), system.control_bytes(),
          system.ants_launched(), system.ants_completed()};
}

void expect_pin(const ColonyPin& got, const ColonyPin& want) {
  EXPECT_EQ(got.digest, want.digest);
  EXPECT_EQ(got.ant_hops, want.ant_hops);
  EXPECT_EQ(got.control_bytes, want.control_bytes);
  EXPECT_EQ(got.ants_launched, want.ants_launched);
  EXPECT_EQ(got.ants_completed, want.ants_completed);
}

constexpr std::size_t kPinSteps = 300;

// The paper's 250-node / 12-gateway routing world, advanced live.
ColonyPin run_paper_colony(const AntRoutingConfig& cfg,
                           std::span<const double> hop_delays,
                           std::span<const double> gateway_bias) {
  const RoutingScenario scenario{RoutingScenarioParams{},
                                 paper::kRoutingScenarioSeed};
  World world = scenario.make_world();
  AntRoutingSystem system(world.node_count(), scenario.is_gateway(), cfg,
                          Rng(paper::kRunSeedBase));
  for (std::size_t t = 0; t < kPinSteps; ++t) {
    system.step(world.graph(), t, hop_delays, gateway_bias);
    world.advance();
  }
  return pin_of(system);
}

TEST(AntColonyPinTest, HopCountOnPaperScenario) {
  const ColonyPin got = run_paper_colony(AntRoutingConfig{}, {}, {});
  expect_pin(got, {0xb1f9ee9278d80358ull, 106726, 6256208, 14298, 12266});
}

TEST(AntColonyPinTest, DelayWithBiasAndLossOnPaperScenario) {
  AntRoutingConfig cfg;
  cfg.reinforcement = AntReinforcement::kDelay;
  cfg.ant_loss_probability = 0.05;
  const std::size_t n = RoutingScenarioParams{}.node_count;
  std::vector<double> delays(n), bias(n);
  for (std::size_t v = 0; v < n; ++v) {
    delays[v] = 1.0 + 0.125 * static_cast<double>(v % 7);
    bias[v] = 0.5 + 0.0625 * static_cast<double>(v % 9);
  }
  const ColonyPin got = run_paper_colony(cfg, delays, bias);
  expect_pin(got, {0x135556040dcf5d0full, 83062, 4625480, 14352, 8317});
}

TEST(AntColonyPinTest, DenseGraphShortTtl) {
  // A complete graph on 10 nodes plus one gateway reachable only through
  // node 0. Weak pheromone (fast evaporation, a high exploration floor)
  // keeps the walks near-uniform, so most ants run into the ttl: by the
  // ninth hop eight of a node's nine neighbours are on the path, and about
  // 40% of all candidate checks are pruned by loop avoidance.
  constexpr NodeId kClique = 10;
  Graph g(kClique + 1);
  for (NodeId u = 0; u < kClique; ++u)
    for (NodeId v = u + 1; v < kClique; ++v) g.add_undirected_edge(u, v);
  g.add_undirected_edge(0, kClique);
  std::vector<bool> is_gateway(kClique + 1, false);
  is_gateway[kClique] = true;
  AntRoutingConfig cfg;
  cfg.ant_ttl = 9;
  cfg.evaporation = 0.5;
  cfg.exploration = 1.0;
  AntRoutingSystem system(kClique + 1, is_gateway, cfg, Rng(5));
  for (std::size_t t = 0; t < kPinSteps; ++t) system.step(g, t);
  expect_pin(pin_of(system), {0x76752c0adb450940ull, 5532, 359912, 581, 137});
}

TEST(AntRoutingTaskTest, RunsOnScenarioAndConnects) {
  RoutingScenarioParams params;
  params.node_count = 80;
  params.gateway_count = 5;
  params.bounds = {{0.0, 0.0}, {500.0, 500.0}};
  params.node_range = 95.0;
  params.trace_steps = 120;
  const RoutingScenario scenario(params, 31);
  AntRoutingTaskConfig cfg;
  cfg.steps = 120;
  cfg.measure_from = 60;
  const auto result = run_ant_routing_task(scenario, cfg, Rng(1));
  ASSERT_EQ(result.connectivity.size(), 120u);
  EXPECT_GT(result.mean_connectivity, 0.2);
  EXPECT_GT(result.ants_completed, 0u);
  EXPECT_GT(result.control_bytes, 0u);
}

TEST(AntRoutingTaskTest, Deterministic) {
  RoutingScenarioParams params;
  params.node_count = 60;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {400.0, 400.0}};
  params.trace_steps = 60;
  const RoutingScenario scenario(params, 32);
  AntRoutingTaskConfig cfg;
  cfg.steps = 60;
  cfg.measure_from = 30;
  const auto a = run_ant_routing_task(scenario, cfg, Rng(2));
  const auto b = run_ant_routing_task(scenario, cfg, Rng(2));
  EXPECT_EQ(a.connectivity, b.connectivity);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
}

}  // namespace
}  // namespace agentnet

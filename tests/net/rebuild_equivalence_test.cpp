// Equivalence suite for the zero-allocation hot paths (ctest label: perf).
//
// Three layers of protection for the "not a single output bit changes"
// contract (docs/ARCHITECTURE.md):
//   1. TopologyBuilder::build / build_into, and World::advance()'s
//      incremental upkeep, vs a naive O(n²) reference builder (the
//      full-rebuild oracle), across all three LinkPolicy values, mobility
//      steps, range quantization, link weather and fault plans.
//   2. CsrView vs the Graph it froze (neighbour order, BFS, connectivity).
//   3. Golden end-to-end values captured from the pre-refactor build for
//      every system whose tables moved from std::map to FlatMap (routing
//      with communication, ACO, DV, link-state flooding) and for the
//      grid-accelerated radius-1 mapping meetings under fault injection.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>

#include "aco/ant_routing_task.hpp"
#include "fault/fault_injector.hpp"
#include "adv/dv_agent.hpp"
#include "common/flat_map.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_task.hpp"
#include "flooding/link_state.hpp"
#include "net/generators.hpp"
#include "net/link_noise.hpp"
#include "net/metrics.hpp"
#include "net/topology.hpp"
#include "routing/connectivity.hpp"
#include "sim/world.hpp"

#include "../sim/topology_oracle.hpp"

namespace agentnet {
namespace {

// ---------------------------------------------------------------------------
// Layer 1: builder equivalence against a naive O(n²) reference.

Graph naive_build(const std::vector<Vec2>& positions,
                  const std::vector<double>& ranges, LinkPolicy policy) {
  Graph graph(positions.size());
  for (std::size_t u = 0; u < positions.size(); ++u) {
    for (std::size_t v = 0; v < positions.size(); ++v) {
      if (u == v) continue;
      const double d2 = distance2(positions[u], positions[v]);
      const double ru2 = ranges[u] * ranges[u];
      const double rv2 = ranges[v] * ranges[v];
      bool link = false;
      switch (policy) {
        case LinkPolicy::kDirected:
          link = d2 <= ru2;
          break;
        case LinkPolicy::kSymmetricAnd:
          link = d2 <= ru2 && d2 <= rv2;
          break;
        case LinkPolicy::kSymmetricOr:
          link = d2 <= ru2 || d2 <= rv2;
          break;
      }
      if (link)
        graph.add_edge(static_cast<NodeId>(u), static_cast<NodeId>(v));
    }
  }
  return graph;
}

TEST(RebuildEquivalenceTest, BuildIntoMatchesNaiveAcrossPoliciesAndSteps) {
  const Aabb bounds{{0.0, 0.0}, {10.0, 10.0}};
  const double max_range = 2.5;
  for (LinkPolicy policy : {LinkPolicy::kDirected, LinkPolicy::kSymmetricAnd,
                            LinkPolicy::kSymmetricOr}) {
    TopologyBuilder builder(bounds, max_range, policy);
    Graph reused;  // deliberately shared across steps to exercise recycling
    Rng rng(42);
    for (int step = 0; step < 8; ++step) {
      // Node count varies too, so reset() must both grow and shrink.
      const std::size_t n = 20 + static_cast<std::size_t>(step % 3) * 17;
      std::vector<Vec2> positions(n);
      std::vector<double> ranges(n);
      for (std::size_t i = 0; i < n; ++i) {
        positions[i] = {rng.uniform_real(0.0, 10.0),
                        rng.uniform_real(0.0, 10.0)};
        ranges[i] = rng.uniform_real(0.3, max_range);
      }
      const Graph expected = naive_build(positions, ranges, policy);
      const Graph built = builder.build(positions, ranges);
      builder.build_into(reused, positions, ranges);
      EXPECT_EQ(built, expected) << "policy " << static_cast<int>(policy)
                                 << " step " << step;
      EXPECT_EQ(reused, expected) << "policy " << static_cast<int>(policy)
                                  << " step " << step;
    }
  }
}

TEST(RebuildEquivalenceTest, WorldRebuildMatchesNaiveUnderMobilityAndWeather) {
  RoutingScenarioParams params;
  params.node_count = 40;
  params.gateway_count = 3;
  params.trace_steps = 30;
  const RoutingScenario scenario(params, 7);
  World world = scenario.make_world();
  world.set_link_flapper(LinkFlapper(0.2, 4, 0xBEEF));
  const LinkFlapper reference_weather(0.2, 4, 0xBEEF);
  for (int step = 0; step < 25; ++step) {
    std::vector<double> ranges(world.node_count());
    for (NodeId v = 0; v < world.node_count(); ++v)
      ranges[v] = world.effective_range(v);
    Graph expected =
        naive_build(world.positions(), ranges, world.link_policy());
    reference_weather.apply(expected, world.step());
    EXPECT_EQ(world.graph(), expected) << "step " << step;
    EXPECT_EQ(CsrView(world.graph()), world.csr()) << "step " << step;
    world.advance();
  }
}

// ---------------------------------------------------------------------------
// Layer 2: CsrView freezes exactly the Graph's adjacency.

TEST(CsrEquivalenceTest, SnapshotMatchesGraphAndRecyclesStorage) {
  const GeneratedNetwork net =
      paper_mapping_network(11);
  CsrView csr;
  csr.rebuild_from(net.graph);
  ASSERT_EQ(csr.node_count(), net.graph.node_count());
  ASSERT_EQ(csr.edge_count(), net.graph.edge_count());
  for (NodeId u = 0; u < net.graph.node_count(); ++u) {
    const auto a = net.graph.out_neighbors(u);
    const auto b = csr.out_neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << u;
    for (NodeId v = 0; v < net.graph.node_count(); ++v)
      ASSERT_EQ(csr.has_edge(u, v), net.graph.has_edge(u, v));
  }
  // BFS over either representation is identical.
  EXPECT_EQ(bfs_distances(csr, 0), bfs_distances(net.graph, 0));
  // Refreezing from a smaller graph reuses the arrays and drops the rest.
  Graph small(3);
  small.add_edge(0, 2);
  csr.rebuild_from(small);
  EXPECT_EQ(csr.node_count(), 3u);
  EXPECT_EQ(csr.edge_count(), 1u);
  EXPECT_TRUE(csr.has_edge(0, 2));
}

TEST(CsrEquivalenceTest, ConnectivityWalksMatchGraphWalks) {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.trace_steps = 10;
  const RoutingScenario scenario(params, 3);
  World world = scenario.make_world();
  RoutingTables tables(world.node_count());
  // Point every node at its first out-neighbour (valid or not — the walk
  // logic decides) to exercise loop and dead-end paths as well.
  for (NodeId v = 0; v < world.node_count(); ++v) {
    const auto nbrs = world.graph().out_neighbors(v);
    if (nbrs.empty()) continue;
    RouteEntry entry;
    entry.next_hop = nbrs.front();
    entry.gateway = 0;
    entry.hops = 1;
    entry.installed_at = 0;
    tables.force(v, entry);
  }
  for (std::size_t max_hops : {std::size_t{0}, std::size_t{3}}) {
    const auto from_graph = valid_route_flags(
        world.graph(), tables, scenario.is_gateway(), max_hops);
    const auto from_csr = valid_route_flags(
        world.csr(), tables, scenario.is_gateway(), max_hops);
    EXPECT_EQ(from_graph, from_csr) << "max_hops " << max_hops;
  }
}

TEST(CsrEquivalenceTest, TransposeMatchesPerEdgeReversal) {
  const GeneratedNetwork net =
      paper_mapping_network(23);
  Graph expected(net.graph.node_count());
  for (const Edge& e : net.graph.edges()) expected.add_edge(e.to, e.from);
  Graph rev;
  net.graph.transposed_into(rev);
  EXPECT_EQ(rev, expected);
  EXPECT_EQ(reversed(net.graph), expected);
  // in_degrees agrees with the per-node scan.
  const auto degs = net.graph.in_degrees();
  for (NodeId v = 0; v < net.graph.node_count(); ++v)
    ASSERT_EQ(degs[v], net.graph.in_degree(v)) << "node " << v;
}

// ---------------------------------------------------------------------------
// FlatMap mirrors std::map operation by operation.

TEST(FlatMapEquivalenceTest, MirrorsStdMapUnderRandomOperations) {
  FlatMap<NodeId, double> flat;
  std::map<NodeId, double> ref;
  Rng rng(99);
  for (int op = 0; op < 2000; ++op) {
    const NodeId key = static_cast<NodeId>(rng.index(40));
    switch (rng.index(5)) {
      case 0:
        flat[key] += 1.5;
        ref[key] += 1.5;
        break;
      case 1:
        flat.emplace(key, 2.0);
        ref.emplace(key, 2.0);
        break;
      case 2:
        flat.insert_or_assign(key, 3.25);
        ref[key] = 3.25;
        break;
      case 3:
        EXPECT_EQ(flat.erase(key), ref.erase(key));
        break;
      case 4: {
        // Erase-while-iterating, the evaporation pattern.
        auto fit = flat.begin();
        auto rit = ref.begin();
        while (fit != flat.end() && rit != ref.end()) {
          if (fit->first % 3 == 0) {
            fit = flat.erase(fit);
            rit = ref.erase(rit);
          } else {
            ++fit;
            ++rit;
          }
        }
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Identical contents in identical (ascending) order.
  auto rit = ref.begin();
  for (const auto& [k, v] : flat) {
    ASSERT_NE(rit, ref.end());
    EXPECT_EQ(k, rit->first);
    EXPECT_EQ(v, rit->second);
    ++rit;
  }
  EXPECT_EQ(rit, ref.end());
}

// ---------------------------------------------------------------------------
// Layer 3: golden end-to-end values captured from the pre-refactor build
// (same configs, same seeds). A single changed bit anywhere in the agent
// loops, tables, builder or measurement shifts these.

RoutingScenario golden_scenario() {
  RoutingScenarioParams params;
  params.node_count = 60;
  params.gateway_count = 4;
  params.trace_steps = 120;
  return RoutingScenario(params, 2024);
}

TEST(GoldenEquivalenceTest, RoutingWithCommunication) {
  RoutingTaskConfig config;
  config.population = 30;
  config.agent.communicate = true;
  config.steps = 120;
  config.measure_from = 60;
  const auto r = run_routing_task(golden_scenario(), config, Rng(7));
  EXPECT_EQ(r.mean_connectivity, 0.23138888888888887);
  EXPECT_EQ(r.stddev_connectivity, 0.018938811838341008);
  EXPECT_EQ(r.migration_bytes, 454920u);
}

TEST(GoldenEquivalenceTest, AntRouting) {
  AntRoutingTaskConfig config;
  config.steps = 120;
  config.measure_from = 60;
  const auto r = run_ant_routing_task(golden_scenario(), config, Rng(7));
  EXPECT_EQ(r.mean_connectivity, 0.22361111111111112);
  EXPECT_EQ(r.stddev_connectivity, 0.019478044684546947);
  EXPECT_EQ(r.ant_hops, 2910u);
  EXPECT_EQ(r.control_bytes, 121048u);
  EXPECT_EQ(r.ants_launched, 1349u);
  EXPECT_EQ(r.ants_completed, 222u);
}

TEST(GoldenEquivalenceTest, DvRouting) {
  DvRoutingTaskConfig config;
  config.population = 30;
  config.steps = 120;
  config.measure_from = 60;
  const auto r = run_dv_routing_task(golden_scenario(), config, Rng(7));
  EXPECT_EQ(r.mean_connectivity, 0.2344444444444444);
  EXPECT_EQ(r.stddev_connectivity, 0.018119364288232284);
  EXPECT_EQ(r.migration_bytes, 332208u);
}

TEST(GoldenEquivalenceTest, LinkStateFlooding) {
  World world = golden_scenario().make_world();
  LinkStateConfig config;
  config.lsa_loss_probability = 0.1;
  LinkStateFlooding flood(world.node_count(), config);
  for (std::size_t t = 0; t < 80; ++t) {
    flood.step(world.graph(), t);
    world.advance();
  }
  EXPECT_EQ(flood.messages_sent(), 2858u);
  EXPECT_EQ(flood.bytes_sent(), 128168u);
  EXPECT_EQ(flood.mean_completeness(world.graph()), 0.13233333333333328);
}

// ---------------------------------------------------------------------------
// Topology upkeep against the naive oracle: World::advance() patches the
// graph incrementally, and at every step the result must equal the naive
// O(n²) rebuild from the current positions and quantized ranges — across
// link policies, link weather, range quantization and fault plans — with
// the CSR frozen from it and epoch() moving exactly when the edge set does.

RoutingScenario churn_scenario(LinkPolicy policy, std::uint64_t seed) {
  RoutingScenarioParams params;
  params.node_count = 45;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {420.0, 420.0}};
  params.trace_steps = 40;
  params.policy = policy;
  return RoutingScenario(params, seed);
}

Graph naive_oracle(const World& world, double quantum) {
  Graph graph = naive_build(world.positions(), quantized_ranges(world, quantum),
                            world.link_policy());
  apply_weather(world, graph);
  return graph;
}

TEST(UpkeepOracleTest, MatchesNaiveRebuildAcrossPoliciesWeatherAndQuantum) {
  for (LinkPolicy policy : {LinkPolicy::kDirected, LinkPolicy::kSymmetricAnd,
                            LinkPolicy::kSymmetricOr}) {
    for (bool weather : {false, true}) {
      for (const char* quantum : {"0", "7.5"}) {
        ASSERT_EQ(setenv("AGENTNET_TOPO_RANGE_QUANTUM", quantum, 1), 0);
        World world =
            churn_scenario(policy, 11 + static_cast<std::uint64_t>(policy))
                .make_world();
        ASSERT_EQ(unsetenv("AGENTNET_TOPO_RANGE_QUANTUM"), 0);
        if (weather) world.set_link_flapper(LinkFlapper(0.15, 3, 0xF1A9));
        const double q = std::atof(quantum);
        for (int step = 0; step < 35; ++step) {
          const Graph before = world.graph();
          const std::uint64_t epoch = world.epoch();
          world.advance();
          ASSERT_EQ(world.graph(), naive_oracle(world, q))
              << "policy " << static_cast<int>(policy) << " weather "
              << weather << " quantum " << quantum << " step " << step;
          ASSERT_EQ(world.csr(), CsrView(world.graph()));
          ASSERT_EQ(world.epoch() != epoch, !(world.graph() == before));
        }
      }
    }
  }
}

TEST(UpkeepOracleTest, EpochMovesExactlyWithEdgeSet) {
  World world = churn_scenario(LinkPolicy::kSymmetricAnd, 29).make_world();
  const EpochTally tally =
      expect_upkeep_matches_oracle(world, 40, 0.0, "epoch iff");
  // The scenario must exercise both directions of the iff.
  EXPECT_GT(tally.moved, 0u);
  EXPECT_GT(tally.held, 0u);
}

TEST(UpkeepOracleTest, FaultMasksMatchOracleUnderFaultPlans) {
  FaultPlan plan;
  plan.node_crash_probability = 0.04;
  plan.crash_persistence = 5;
  plan.burst_drop_probability = 0.1;
  plan.burst_persistence = 3;
  plan.blackouts.push_back(Blackout{{210.0, 210.0}, 120.0, 8, 12});
  plan.weather_seed = 0xD00D;

  World world = churn_scenario(LinkPolicy::kSymmetricAnd, 31).make_world();
  // The oracle side masks the naive rebuild with the Graph overload
  // (recomputes every new step); the world side uses the World overload
  // with the cross-step cache.
  FaultInjector oracle_inj(plan, Rng(1));
  FaultInjector world_inj(plan, Rng(1));
  obs::RunObs oracle_obs, world_obs;
  for (int step = 0; step < 35; ++step) {
    const Graph oracle = naive_oracle(world, 0.0);
    {
      obs::ObsRunScope scope(oracle_obs);
      const Graph& a =
          oracle_inj.live_graph(oracle, world.positions(), world.step());
      obs::ObsRunScope scope2(world_obs);
      const Graph& b = world_inj.live_graph(world, world.step());
      ASSERT_EQ(b, a) << "step " << step;
    }
    world.advance();
  }
  // Cross-step cache hits re-emit the cached drop total, so the per-run
  // counter footers agree with the recompute-every-step path. (A half-
  // mobile world changes epoch every step, so no hits are expected here —
  // the static-world test below covers the hit path.)
  EXPECT_EQ(world_obs.counters.value(obs::Counter::kFaultLinkDrops),
            oracle_obs.counters.value(obs::Counter::kFaultLinkDrops));
}

TEST(UpkeepOracleTest, FaultMaskCrossStepCacheHitsOnStaticWorld) {
  // On a static world the graph epoch never moves, so the World-overload
  // mask is recomputed only when a crash or burst window flips; all other
  // steps must be cache hits with identical masks and drop totals.
  FaultPlan plan;
  plan.node_crash_probability = 0.05;
  plan.crash_persistence = 5;
  plan.burst_drop_probability = 0.1;
  plan.burst_persistence = 3;
  plan.weather_seed = 0xD00D;

  RoutingScenarioParams params;
  params.node_count = 45;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {420.0, 420.0}};
  params.mobile_fraction = 0.0;  // nothing moves, nothing drains
  params.trace_steps = 40;
  const RoutingScenario scenario(params, 31);
  World ref = scenario.make_world();
  World cached = scenario.make_world();
  FaultInjector ref_inj(plan, Rng(1));
  FaultInjector cached_inj(plan, Rng(1));
  obs::RunObs ref_obs, cached_obs;
  for (int step = 0; step < 35; ++step) {
    {
      obs::ObsRunScope scope(ref_obs);
      const Graph& a =
          ref_inj.live_graph(ref.graph(), ref.positions(), ref.step());
      obs::ObsRunScope scope2(cached_obs);
      const Graph& b = cached_inj.live_graph(cached, cached.step());
      ASSERT_EQ(b, a) << "step " << step;
    }
    ref.advance();
    cached.advance();
  }
  EXPECT_EQ(cached_obs.counters.value(obs::Counter::kFaultLinkDrops),
            ref_obs.counters.value(obs::Counter::kFaultLinkDrops));
  EXPECT_GT(cached_obs.counters.value(obs::Counter::kDerivedCacheHits), 0u);
}

TEST(GoldenEquivalenceTest, MappingRadius1MeetingsUnderFaults) {
  TargetEdgeParams params;
  params.geometry.node_count = 60;
  params.target_edges = 300;
  const GeneratedNetwork net = generate_target_edge_network(params, 99);
  World world = World::frozen(net);
  MappingTaskConfig config;
  config.population = 6;
  config.comm_radius = 1;
  config.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  config.max_steps = 4000;
  config.record_series = false;
  config.faults.exchange_failure_probability = 0.2;
  config.faults.agent_loss_probability = 0.002;
  config.faults.watchdog_ttl = 80;
  const auto r = run_mapping_task(world, config, Rng(5));
  EXPECT_TRUE(r.finished);
  EXPECT_EQ(r.finishing_time, 40u);
  EXPECT_EQ(r.migration_bytes, 402460u);
  EXPECT_EQ(r.agents_lost, 0u);
  EXPECT_EQ(r.agents_respawned, 0u);
  EXPECT_EQ(r.final_population, 6u);
}

}  // namespace
}  // namespace agentnet

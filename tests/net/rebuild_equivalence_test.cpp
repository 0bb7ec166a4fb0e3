// Equivalence suite for the zero-allocation hot paths (ctest label: perf).
//
// Three layers of protection for the "not a single output bit changes"
// contract (docs/ARCHITECTURE.md):
//   1. TopologyBuilder::build / build_into, and World::advance()'s
//      incremental upkeep, vs a naive O(n²) reference builder (the
//      full-rebuild oracle), across all three LinkPolicy values, mobility
//      steps, range quantization, link weather and fault plans.
//   2. A Graph's slot layout is invisible: padded, relocated and dense
//      layouts of one edge set give the same neighbour order, BFS and
//      connectivity walks.
//   3. Golden end-to-end values captured from the pre-refactor build for
//      every system whose tables moved from std::map to FlatMap (routing
//      with communication, ACO, DV, link-state flooding) and for the
//      grid-accelerated radius-1 mapping meetings under fault injection.
//   4. The block-parallel cold build (TopologyBuilder::build_into over
//      fields of several blocks) equals the serial build in rows *and*
//      slot layout at AGENTNET_THREADS {1, 2, 7}, for the builder, World
//      restore and the generated networks, and fails the same way; so
//      does update_into's row gather over a ForkJoin team.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>

#include "aco/ant_routing_task.hpp"
#include "fault/fault_injector.hpp"
#include "adv/dv_agent.hpp"
#include "common/flat_map.hpp"
#include "common/fork_join.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_task.hpp"
#include "energy/battery.hpp"
#include "flooding/link_state.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "net/link_noise.hpp"
#include "net/metrics.hpp"
#include "net/topology.hpp"
#include "radio/range_model.hpp"
#include "routing/connectivity.hpp"
#include "sim/world.hpp"
#include "snapshot/bytes.hpp"

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
    world.advance();
  }
}

// ---------------------------------------------------------------------------
// Layer 2: a Graph's slot layout never shows through its adjacency.

/// The same edge set in a dense, slack-free layout: the transpose of the
/// transpose.
Graph dense_copy(const Graph& g) {
  Graph rev;
  Graph dense;
  g.transposed_into(rev);
  rev.transposed_into(dense);
  return dense;
}

TEST(CsrEquivalenceTest, SnapshotMatchesGraphAndRecyclesStorage) {
  const GeneratedNetwork net =
      paper_mapping_network(11);
  // net.graph was grown edge by edge (rows moved as they outgrew their
  // slots); its dense twin holds the same rows back to back.
  const Graph dense = dense_copy(net.graph);
  ASSERT_EQ(dense, net.graph);
  ASSERT_EQ(dense.edge_count(), net.graph.edge_count());
  for (NodeId u = 0; u < net.graph.node_count(); ++u) {
    const auto a = net.graph.out_neighbors(u);
    const auto b = dense.out_neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << u;
    for (NodeId v = 0; v < net.graph.node_count(); ++v)
      ASSERT_EQ(dense.has_edge(u, v), net.graph.has_edge(u, v));
  }
  EXPECT_EQ(bfs_distances(dense, 0), bfs_distances(net.graph, 0));
  // Re-laying a smaller graph into used storage drops the rest.
  Graph reused = dense;
  Graph small(3);
  small.add_edge(0, 2);
  small.transposed_into(reused);
  EXPECT_EQ(reused.node_count(), 3u);
  EXPECT_EQ(reused.edge_count(), 1u);
  EXPECT_TRUE(reused.has_edge(2, 0));
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
    const auto from_dense = valid_route_flags(
        dense_copy(world.graph()), tables, scenario.is_gateway(), max_hops);
    EXPECT_EQ(from_graph, from_dense) << "max_hops " << max_hops;
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

// ---------------------------------------------------------------------------
// Layer 4: the block-parallel cold build.

/// Sets AGENTNET_THREADS for its lifetime, then restores the old value.
class ScopedThreads {
 public:
  explicit ScopedThreads(int threads) {
    if (const char* old = std::getenv("AGENTNET_THREADS")) old_ = old;
    EXPECT_EQ(
        setenv("AGENTNET_THREADS", std::to_string(threads).c_str(), 1), 0);
  }
  ~ScopedThreads() {
    if (old_)
      setenv("AGENTNET_THREADS", old_->c_str(), 1);
    else
      unsetenv("AGENTNET_THREADS");
  }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;

 private:
  std::optional<std::string> old_;
};

constexpr int kBuildThreads[] = {1, 2, 7};
constexpr double kFieldMaxRange = 110.0;

/// About 2.5 build blocks at extR's density (250 nodes per km²), so the
/// third block is a partial one.
struct BlockField {
  Aabb bounds{};
  std::vector<Vec2> positions;
  std::vector<double> ranges;
};

BlockField block_field(std::uint64_t seed) {
  const std::size_t n = TopologyBuilder::kBuildBlockNodes * 5 / 2;
  const double side = 1000.0 * std::sqrt(static_cast<double>(n) / 250.0);
  Rng rng(seed);
  BlockField field;
  field.bounds = {{0.0, 0.0}, {side, side}};
  field.positions = random_positions(n, field.bounds, rng);
  field.ranges = heterogeneous_ranges(n, 40.0, kFieldMaxRange, rng);
  return field;
}

Graph build_field(const BlockField& field, LinkPolicy policy) {
  Graph graph;
  TopologyBuilder(field.bounds, kFieldMaxRange, policy)
      .build_into(graph, field.positions, field.ranges);
  return graph;
}

TEST(BlockBuildTest, MatchesSerialRowsAndLayoutAtAnyThreadCount) {
  const BlockField field = block_field(21);
  for (LinkPolicy policy : {LinkPolicy::kDirected, LinkPolicy::kSymmetricAnd,
                            LinkPolicy::kSymmetricOr}) {
    const std::string what =
        "policy " + std::to_string(static_cast<int>(policy));
    Graph serial;
    {
      const ScopedThreads one(1);
      serial = build_field(field, policy);
    }
    ASSERT_GT(serial.edge_count(), field.positions.size()) << what;
    // The serial build is the row-by-row layout: reset, then every row
    // assigned in node order.
    Graph row_by_row(field.positions.size());
    for (NodeId u = 0; u < serial.node_count(); ++u) {
      const auto row = serial.out_neighbors(u);
      const std::vector<NodeId> copy(row.begin(), row.end());
      row_by_row.assign_out_edges(u, copy);
    }
    ASSERT_TRUE(same_layout(serial, row_by_row)) << what;
    for (int threads : kBuildThreads) {
      const ScopedThreads scoped(threads);
      TopologyBuilder builder(field.bounds, kFieldMaxRange, policy);
      Graph built;
      builder.build_into(built, field.positions, field.ranges);
      EXPECT_TRUE(same_layout(built, serial)) << what << " threads " << threads;
      // A warm builder rebuilding into recycled storage lays out the same.
      builder.build_into(built, field.positions, field.ranges);
      EXPECT_TRUE(same_layout(built, serial)) << what << " threads " << threads;
    }
  }
}

TEST(BlockBuildTest, OverRangeNodeInThirdBlockThrowsTheSerialError) {
  BlockField field = block_field(22);
  const std::size_t third = 2 * TopologyBuilder::kBuildBlockNodes;
  ASSERT_LT(third + 900, field.positions.size());
  // Two bad nodes in the third block: the lower one is the one reported.
  field.ranges[third + 300] = 2.0 * kFieldMaxRange;
  field.ranges[third + 900] = 2.0 * kFieldMaxRange;
  const std::string expected = "requirement failed: effective range of node " +
                               std::to_string(third + 300) +
                               " exceeds builder max_range";
  for (int threads : kBuildThreads) {
    const ScopedThreads scoped(threads);
    try {
      build_field(field, LinkPolicy::kSymmetricAnd);
      ADD_FAILURE() << "threads " << threads << ": no error";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), expected) << "threads " << threads;
    }
  }
}

// update_into fails the same serial and on a team: with two over-range
// dirty nodes in different team chunks, the lower one is named.
TEST(BlockBuildTest, OverRangeDirtyRowsThrowTheSerialErrorThroughTheTeam) {
  const BlockField field = block_field(24);
  constexpr std::size_t kDirty = 2000;  // four chunks of 500 over the team
  static_assert(kDirty > TopologyBuilder::kGatherGrain);
  std::vector<NodeId> dirty(kDirty);
  for (std::size_t i = 0; i < kDirty; ++i)
    dirty[i] = static_cast<NodeId>(i * 16);
  ASSERT_LT(dirty.back(), field.positions.size());
  std::vector<double> ranges = field.ranges;
  ranges[dirty[700]] = 2.0 * kFieldMaxRange;   // chunk 1
  ranges[dirty[1700]] = 2.0 * kFieldMaxRange;  // chunk 3
  const std::string expected = "requirement failed: effective range of node " +
                               std::to_string(dirty[700]) +
                               " exceeds builder max_range";
  ForkJoin team(4);
  for (ForkJoin* via : {static_cast<ForkJoin*>(nullptr), &team}) {
    TopologyBuilder builder(field.bounds, kFieldMaxRange,
                            LinkPolicy::kSymmetricAnd);
    Graph graph;
    builder.build_into(graph, field.positions, field.ranges);
    TopologyBuilder::UpdateOptions opts;
    opts.team = via;
    const std::string what = via ? "team" : "serial";
    try {
      builder.update_into(graph, dirty, field.positions, ranges, opts);
      ADD_FAILURE() << what << ": no error";
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), expected) << what;
    }
  }
}

// A builder whose update_into threw stays usable: the range check runs
// before the dirty mask, the grid or the graph change, so the next valid
// update through the same builder and graph gives a fresh builder's rows
// and layout, serial and on a team.
TEST(BlockBuildTest, OverRangeUpdateLeavesBuilderAndGraphReusable) {
  const BlockField field = block_field(24);
  constexpr std::size_t kDirty = 2000;
  std::vector<NodeId> dirty(kDirty);
  for (std::size_t i = 0; i < kDirty; ++i)
    dirty[i] = static_cast<NodeId>(i * 16);
  // The failed update moves every dirty node and puts one out of range; the
  // valid one moves every other dirty node, still above the gather grain.
  std::vector<Vec2> moved = field.positions;
  for (NodeId u : dirty)
    moved[u] = field.bounds.clamp(moved[u] + Vec2{7.0, -5.0});
  std::vector<double> over_range = field.ranges;
  over_range[dirty[700]] = 2.0 * kFieldMaxRange;
  std::vector<NodeId> half;
  std::vector<Vec2> half_moved = field.positions;
  for (std::size_t i = 0; i < kDirty; i += 2) {
    half.push_back(dirty[i]);
    half_moved[dirty[i]] = moved[dirty[i]];
  }
  static_assert(kDirty / 2 > TopologyBuilder::kGatherGrain);
  ForkJoin team(4);
  for (LinkPolicy policy : {LinkPolicy::kDirected, LinkPolicy::kSymmetricAnd}) {
    for (ForkJoin* via : {static_cast<ForkJoin*>(nullptr), &team}) {
      const std::string what =
          "policy " + std::to_string(static_cast<int>(policy)) +
          (via ? " team" : " serial");
      TopologyBuilder::UpdateOptions opts;
      opts.team = via;
      TopologyBuilder fresh(field.bounds, kFieldMaxRange, policy);
      Graph expected;
      fresh.build_into(expected, field.positions, field.ranges);
      fresh.update_into(expected, half, half_moved, field.ranges, opts);
      TopologyBuilder reused(field.bounds, kFieldMaxRange, policy);
      Graph graph;
      reused.build_into(graph, field.positions, field.ranges);
      EXPECT_THROW(reused.update_into(graph, dirty, moved, over_range, opts),
                   ConfigError)
          << what;
      reused.update_into(graph, half, half_moved, field.ranges, opts);
      EXPECT_EQ(graph, expected) << what;
      EXPECT_TRUE(same_layout(graph, expected)) << what;
    }
  }
}

/// The block field as a World: stationary mains-powered nodes plus a
/// battery-powered 0.1% convoy, as in extR.
World block_world() {
  const BlockField field = block_field(23);
  const std::size_t n = field.positions.size();
  std::vector<bool> mobile(n, false);
  for (std::size_t i = 0; i < n; i += 1000) mobile[i] = true;
  auto mobility = std::make_unique<RandomDirectionMobility>(
      field.bounds, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
      Rng(0x30B));
  return World(field.bounds, field.positions,
               RadioModel(field.ranges, RangeScaling{1.0}),
               BatteryBank(n, mobile, BatteryParams{1.0, 0.001}),
               std::move(mobility), LinkPolicy::kSymmetricAnd);
}

TEST(BlockBuildTest, WorldRestoreReserialisesAndContinuesAtAnyThreadCount) {
  constexpr int kSteps = 50;
  std::vector<std::uint8_t> saved;
  std::optional<World> uninterrupted;
  {
    const ScopedThreads one(1);
    uninterrupted.emplace(block_world());
    for (int step = 0; step < 10; ++step) uninterrupted->advance();
    snapshot::ByteWriter w;
    uninterrupted->save_state(w);
    saved = w.bytes();
    const std::uint64_t saved_epoch = uninterrupted->epoch();
    for (int step = 0; step < kSteps; ++step) uninterrupted->advance();
    ASSERT_GT(uninterrupted->epoch(), saved_epoch) << "the convoy never moved";
  }
  std::optional<Graph> serial_restore;
  for (int threads : kBuildThreads) {
    const ScopedThreads scoped(threads);
    World resumed = block_world();
    snapshot::ByteReader r(saved);
    resumed.load_state(r);
    snapshot::ByteWriter again;
    resumed.save_state(again);
    EXPECT_EQ(again.bytes(), saved) << "threads " << threads;
    if (!serial_restore)
      serial_restore = resumed.graph();
    else
      EXPECT_TRUE(same_layout(resumed.graph(), *serial_restore))
          << "threads " << threads;
    for (int step = 0; step < kSteps; ++step) resumed.advance();
    EXPECT_EQ(resumed.graph(), uninterrupted->graph()) << "threads " << threads;
    EXPECT_EQ(resumed.epoch(), uninterrupted->epoch()) << "threads " << threads;
    EXPECT_EQ(resumed.state_epoch(), uninterrupted->state_epoch())
        << "threads " << threads;
  }
}

TEST(BlockBuildTest, GeneratedNetworkIsOneFreshBuildOfTheAcceptedRanges) {
  // The multiplier bisection probes into one scratch graph; the network it
  // returns is a fresh build, laid out exactly as build() lays it out.
  const GeneratedNetwork net = generate_target_edge_network({}, 2010);
  const double max_range =
      *std::max_element(net.base_ranges.begin(), net.base_ranges.end());
  const Graph fresh = TopologyBuilder(net.bounds, max_range, net.policy)
                          .build(net.positions, net.base_ranges);
  EXPECT_TRUE(same_layout(net.graph, fresh));
}

}  // namespace
}  // namespace agentnet

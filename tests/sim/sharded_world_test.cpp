// Topology-upkeep oracle suite (ctest label: perf).
//
// The contract under test (docs/PERFORMANCE.md, "Topology upkeep"): the
// tile-sharded incremental advance() produces, at every step, exactly the
// graph a full rebuild from the current snapshot would — with the CSR
// frozen from it and epoch() moving exactly when the edge set does — across
// link policies, mobility, link weather, range quantization, fault plans,
// checkpoint/restore and shard thread counts {1, 2, 7}; plus halo-edge
// goldens for links that cross tile boundaries, and a crowd large enough
// that the row gather really fans out over the team.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/routing_task.hpp"
#include "energy/battery.hpp"
#include "fault/fault_injector.hpp"
#include "mobility/mobility.hpp"
#include "net/link_noise.hpp"
#include "obs/scope.hpp"
#include "radio/range_model.hpp"
#include "sim/world.hpp"
#include "snapshot/bytes.hpp"
#include "topology_oracle.hpp"

namespace agentnet {
namespace {

RoutingScenario churn_scenario(LinkPolicy policy, std::uint64_t seed) {
  RoutingScenarioParams params;
  params.node_count = 45;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {420.0, 420.0}};
  params.trace_steps = 40;
  params.policy = policy;
  return RoutingScenario(params, seed);
}

/// Builds a churn world under AGENTNET_TOPO_RANGE_QUANTUM=`quantum`.
World quantized_world(const RoutingScenario& scenario, const char* quantum) {
  EXPECT_EQ(setenv("AGENTNET_TOPO_RANGE_QUANTUM", quantum, 1), 0);
  World world = scenario.make_world();
  EXPECT_EQ(unsetenv("AGENTNET_TOPO_RANGE_QUANTUM"), 0);
  return world;
}

TEST(ShardedWorldTest, MatchesOracleAcrossPoliciesWeatherQuantumAndThreads) {
  for (LinkPolicy policy : {LinkPolicy::kDirected, LinkPolicy::kSymmetricAnd,
                            LinkPolicy::kSymmetricOr}) {
    for (bool weather : {false, true}) {
      for (const char* quantum : {"0", "7.5"}) {
        for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{7}}) {
          const RoutingScenario scenario =
              churn_scenario(policy, 11 + static_cast<std::uint64_t>(policy));
          World world = quantized_world(scenario, quantum);
          world.set_shard_threads(threads);
          if (weather) world.set_link_flapper(LinkFlapper(0.15, 3, 0xF1A9));
          const std::string what =
              "policy " + std::to_string(static_cast<int>(policy)) +
              " weather " + std::to_string(weather) + " quantum " + quantum +
              " threads " + std::to_string(threads);
          const EpochTally tally = expect_upkeep_matches_oracle(
              world, 35, std::atof(quantum), what);
          ASSERT_FALSE(HasFailure()) << what;
          EXPECT_GT(tally.moved, 10u) << what << ": too little churn";
        }
      }
    }
  }
}

/// Nodes whose position or quantized range differ between two snapshots.
std::size_t changed_nodes(const std::vector<Vec2>& before_pos,
                          const std::vector<double>& before_ranges,
                          const World& world) {
  const std::vector<double> ranges = quantized_ranges(world, 0.0);
  std::size_t n = 0;
  for (NodeId v = 0; v < world.node_count(); ++v)
    if (before_pos[v] != world.positions()[v] || before_ranges[v] != ranges[v])
      ++n;
  return n;
}

TEST(ShardedWorldTest, FaultMasksAndCountersMatchOracleUnderFaultPlans) {
  FaultPlan plan;
  plan.node_crash_probability = 0.04;
  plan.crash_persistence = 5;
  plan.burst_drop_probability = 0.1;
  plan.burst_persistence = 3;
  plan.blackouts.push_back(Blackout{{210.0, 210.0}, 120.0, 8, 12});
  plan.weather_seed = 0xD00D;

  for (std::size_t threads : {std::size_t{1}, std::size_t{7}}) {
    const RoutingScenario scenario =
        churn_scenario(LinkPolicy::kSymmetricAnd, 31);
    World world = scenario.make_world();
    world.set_shard_threads(threads);
    world.set_link_flapper(LinkFlapper(0.1, 4, 0xABCD));
    // The oracle side masks the from-scratch graph with the Graph overload
    // (recomputes every step); the world side uses the World overload with
    // its epoch-keyed cross-step cache.
    FaultInjector oracle_inj(plan, Rng(1));
    FaultInjector world_inj(plan, Rng(1));
    obs::RunObs oracle_obs, world_obs;
    for (int step = 0; step < 35; ++step) {
      const Graph oracle = full_rebuild_oracle(world, 0.0);
      {
        obs::ObsRunScope scope(oracle_obs);
        const Graph& a =
            oracle_inj.live_graph(oracle, world.positions(), world.step());
        obs::ObsRunScope scope2(world_obs);
        const Graph& b = world_inj.live_graph(world, world.step());
        ASSERT_EQ(b, a) << "threads " << threads << " step " << step;
      }
      const std::vector<Vec2> positions = world.positions();
      const std::vector<double> ranges = quantized_ranges(world, 0.0);
      const obs::MetricsSnapshot before = obs::snapshot(world_obs.counters);
      {
        obs::ObsRunScope scope(world_obs);
        world.advance();
      }
      const obs::MetricsSnapshot after = obs::snapshot(world_obs.counters);
      const auto delta = [&](obs::Counter c) {
        return after.value(c) - before.value(c);
      };
      // Every advance charges each link the weather holds down, and
      // exactly the nodes whose position or range changed count as dirty.
      TopologyBuilder builder(world.bounds(), world.radio().max_base_range(),
                              world.link_policy());
      const Graph geo =
          builder.build(world.positions(), quantized_ranges(world, 0.0));
      ASSERT_EQ(delta(obs::Counter::kLinkFlaps),
                geo.edge_count() - world.graph().edge_count())
          << "threads " << threads << " step " << step;
      ASSERT_EQ(delta(obs::Counter::kTopoNodesDirty),
                changed_nodes(positions, ranges, world))
          << "threads " << threads << " step " << step;
    }
    EXPECT_EQ(world_obs.counters.value(obs::Counter::kFaultLinkDrops),
              oracle_obs.counters.value(obs::Counter::kFaultLinkDrops));
    EXPECT_EQ(world_obs.counters.value(obs::Counter::kTopoFullRebuilds), 0u);
  }
}

TEST(ShardedWorldTest, CheckpointResumeMatchesOracleAtAnyThreadCount) {
  const RoutingScenario scenario =
      churn_scenario(LinkPolicy::kSymmetricAnd, 53);
  World serial = scenario.make_world();
  World threaded = scenario.make_world();
  threaded.set_shard_threads(2);
  serial.set_link_flapper(LinkFlapper(0.12, 4, 0xC0DE));
  threaded.set_link_flapper(LinkFlapper(0.12, 4, 0xC0DE));
  for (int step = 0; step < 13; ++step) {
    serial.advance();
    threaded.advance();
  }
  // Shard structures are derived state and never serialized, so the bytes
  // do not depend on the shard thread count.
  snapshot::ByteWriter serial_bytes, threaded_bytes;
  serial.save_state(serial_bytes);
  threaded.save_state(threaded_bytes);
  ASSERT_EQ(threaded_bytes.bytes(), serial_bytes.bytes());

  // Restoring at another thread count rebuilds the tiles and the graph from
  // the snapshot and continues in lockstep with the uninterrupted run.
  World resumed = scenario.make_world();
  resumed.set_shard_threads(7);
  resumed.set_link_flapper(LinkFlapper(0.12, 4, 0xC0DE));
  snapshot::ByteReader r(threaded_bytes.bytes());
  resumed.load_state(r);
  ASSERT_EQ(resumed.graph(), threaded.graph());
  ASSERT_EQ(resumed.epoch(), threaded.epoch());
  for (int step = 0; step < 12; ++step) {
    threaded.advance();
    const std::uint64_t epoch = resumed.epoch();
    const Graph before = resumed.graph();
    resumed.advance();
    ASSERT_EQ(resumed.graph(), full_rebuild_oracle(resumed, 0.0))
        << "step " << step;
    ASSERT_EQ(resumed.epoch() != epoch, !(resumed.graph() == before))
        << "step " << step;
    ASSERT_EQ(resumed.epoch(), threaded.epoch()) << "step " << step;
    ASSERT_EQ(resumed.state_epoch(), threaded.state_epoch())
        << "step " << step;
  }
  snapshot::ByteWriter resumed_end, threaded_end;
  resumed.save_state(resumed_end);
  threaded.save_state(threaded_end);
  EXPECT_EQ(resumed_end.bytes(), threaded_end.bytes());
}

// ---------------------------------------------------------------------------
// Halo-edge golden: a mobile node approaches a stationary clean node that
// lives in a *different* tile. The link must appear via halo exchange (the
// clean node's row is patched without the node ever being dirty), the CSR
// must track it, and the shard counters must record exactly the expected
// tile/halo work.

/// Replays an explicit per-step position script (golden-test mobility).
class ScriptedMobility final : public MobilityModel {
 public:
  ScriptedMobility(std::vector<std::vector<Vec2>> frames,
                   std::vector<bool> mobile)
      : frames_(std::move(frames)), mobile_(std::move(mobile)) {}

  void step(std::vector<Vec2>& positions) override {
    if (cursor_ < frames_.size()) positions = frames_[cursor_++];
  }
  bool is_stationary(std::size_t node) const override {
    return !mobile_[node];
  }

 private:
  std::vector<std::vector<Vec2>> frames_;
  std::vector<bool> mobile_;
  std::size_t cursor_ = 0;
};

TEST(ShardedWorldTest, HaloEdgeGoldenAcrossTileBoundary) {
  // Arena 160×10, range 10, tile factor 4 ⇒ tile edge 40 ⇒ 4×1 tiles.
  // Node 0: stationary mains at (35,5) — never maybe-dirty, tile 0.
  // Node 1: scripted, starts at (46,5) in tile 1, walks left 2/step:
  //   x = 44, 42, 40, 38, 36 — the link (distance ≤ 10) appears at x=44
  //   and node 1 migrates into tile 0 when x reaches 38.
  // Node 2: scripted, jitters between x=3 and x=2 in tile 0, out of
  //   everyone's range — dirty every step, so tile 0 is dirty every step.
  const Aabb bounds{{0.0, 0.0}, {160.0, 10.0}};
  std::vector<Vec2> start{{35.0, 5.0}, {46.0, 5.0}, {2.0, 5.0}};
  std::vector<std::vector<Vec2>> frames;
  double jitter = 3.0;
  for (double x : {44.0, 42.0, 40.0, 38.0, 36.0}) {
    frames.push_back({{35.0, 5.0}, {x, 5.0}, {jitter, 5.0}});
    jitter = 5.0 - jitter;
  }
  World world(bounds, start,
              RadioModel({10.0, 10.0, 10.0}, RangeScaling{1.0}),
              BatteryBank(3, {false, false, false}, BatteryParams{}),
              std::make_unique<ScriptedMobility>(
                  frames, std::vector<bool>{false, true, true}),
              LinkPolicy::kSymmetricAnd);

  ASSERT_FALSE(world.graph().has_edge(0, 1));  // 11 apart at start
  obs::RunObs run;
  const std::uint64_t epoch0 = world.epoch();
  const std::uint64_t state_epoch0 = world.state_epoch();
  for (int step = 0; step < 5; ++step) {
    obs::ObsRunScope scope(run);
    world.advance();
    EXPECT_TRUE(world.graph().has_edge(0, 1)) << "step " << step;
    EXPECT_TRUE(world.graph().has_edge(1, 0)) << "step " << step;
  }
  // Golden counter values for the scripted walk: nodes 1 and 2 are dirty
  // on all 5 steps. A dirty node counts toward the tile it was scanned in,
  // so node 1 dirties tile 1 on the first four steps (the fourth moves it
  // into tile 0) and tile 0 only on the last: 4 × 2 + 1 × 1 dirty tiles.
  // Node 0's row is patched exactly once
  // (the step the link appeared) — one halo row, and the edge set changes
  // only that step.
  EXPECT_EQ(run.counters.value(obs::Counter::kTopoNodesDirty), 10u);
  EXPECT_EQ(run.counters.value(obs::Counter::kShardTilesDirty), 9u);
  EXPECT_EQ(run.counters.value(obs::Counter::kShardHaloRows), 1u);
  EXPECT_EQ(world.epoch(), epoch0 + 1);
  EXPECT_EQ(world.state_epoch(), state_epoch0 + 5);
}

TEST(ShardedWorldTest, OccupiedTilesEmptyAndRefill) {
  // Arena 160×10, range 10 ⇒ 4×1 tiles of edge 40; every node is scripted.
  // The scan walks only occupied tiles, kept by O(1) append/swap-erase.
  // Node 0 leaves tile 0 on step 1 (emptying it: the last-listed tile 2
  // is swapped into its place) while node 2 leaves tile 2 for tile 3 on
  // the same step; both must migrate. Node 0 returns on step 3 (emptying
  // tile 1, refilling tile 0), and tile 0 must be scanned again on step 4.
  // Node 1 jitters in tile 3 throughout. A dirty node counts toward the
  // tile it is registered in, so a missed migration shows in the count.
  const Aabb bounds{{0.0, 0.0}, {160.0, 10.0}};
  const std::vector<Vec2> start{{5.0, 5.0}, {125.0, 5.0}, {85.0, 5.0}};
  const std::vector<std::vector<Vec2>> frames{
      {{45.0, 5.0}, {126.0, 5.0}, {130.0, 5.0}},
      {{45.0, 5.0}, {125.0, 5.0}, {131.0, 5.0}},
      {{5.0, 5.0}, {126.0, 5.0}, {131.0, 5.0}},
      {{6.0, 5.0}, {125.0, 5.0}, {131.0, 5.0}}};
  World world(bounds, start,
              RadioModel({10.0, 10.0, 10.0}, RangeScaling{1.0}),
              BatteryBank(3, {false, false, false}, BatteryParams{}),
              std::make_unique<ScriptedMobility>(
                  frames, std::vector<bool>{true, true, true}),
              LinkPolicy::kSymmetricAnd);
  const std::uint64_t want_tiles[] = {3, 1, 2, 2};
  const std::uint64_t want_dirty[] = {3, 2, 2, 2};
  for (int step = 0; step < 4; ++step) {
    obs::RunObs run;
    {
      obs::ObsRunScope scope(run);
      world.advance();
    }
    EXPECT_EQ(run.counters.value(obs::Counter::kShardTilesDirty),
              want_tiles[step])
        << "step " << step + 1;
    EXPECT_EQ(run.counters.value(obs::Counter::kTopoNodesDirty),
              want_dirty[step])
        << "step " << step + 1;
    EXPECT_EQ(world.graph(), full_rebuild_oracle(world, 0.0))
        << "step " << step + 1;
  }
}

TEST(ShardedWorldTest, StaticWorldDoesZeroTopologyWork) {
  RoutingScenarioParams params;
  params.node_count = 40;
  params.gateway_count = 4;
  params.mobile_fraction = 0.0;  // nothing moves, nothing drains
  params.trace_steps = 10;
  const RoutingScenario scenario(params, 9);
  World world = scenario.make_world();
  const std::uint64_t epoch = world.epoch();
  const std::uint64_t state_epoch = world.state_epoch();
  obs::RunObs run;
  for (int step = 0; step < 10; ++step) {
    obs::ObsRunScope scope(run);
    world.advance();
  }
  EXPECT_EQ(world.epoch(), epoch);
  EXPECT_EQ(world.state_epoch(), state_epoch);
  EXPECT_EQ(run.counters.value(obs::Counter::kTopoNodesDirty), 0u);
  EXPECT_EQ(run.counters.value(obs::Counter::kShardTilesDirty), 0u);
  EXPECT_EQ(run.counters.value(obs::Counter::kShardHaloRows), 0u);
  EXPECT_EQ(run.counters.value(obs::Counter::kDerivedCacheHits), 10u);
}

TEST(ShardedWorldTest, MemoryBytesCoversLiveStructures) {
  const RoutingScenario scenario =
      churn_scenario(LinkPolicy::kSymmetricAnd, 77);
  World world = scenario.make_world();
  const std::size_t n = world.node_count();
  const std::size_t plain = world.memory_bytes();
  // Node state alone (positions, ranges) is a lower bound; the graph, the
  // builder grid and the shard tiles come on top.
  EXPECT_GT(plain, n * (sizeof(Vec2) + sizeof(double)) +
                       world.graph().edge_count() * sizeof(NodeId));
  // The weather view is counted while a flapper is on.
  world.set_link_flapper(LinkFlapper(0.2, 3, 0xF00D));
  EXPECT_GT(world.memory_bytes(), plain);
}

// ---------------------------------------------------------------------------
// Convoy golden: a 20k-node field with a clustered 1% battery-powered
// RandomDirection convoy (extR's shape at a testable size), 300 steps.
// The digest covers World::save_state and every sampled kBatteryAlive
// gauge; the batteries die at step 200, so ranges drift and the gauge
// moves mid-run. Shard threads must not reach either. The value comes
// from glibc's libm on x86-64 (headings go through cos/sin).

std::uint64_t fnv1a(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  return h;
}

World convoy_world() {
  constexpr std::size_t kNodes = 20'000;
  Rng rng(0xC0);
  const double side = 1000.0 * std::sqrt(static_cast<double>(kNodes) / 250.0);
  const Aabb bounds{{0.0, 0.0}, {side, side}};
  std::vector<Vec2> positions = random_positions(kNodes, bounds, rng);
  std::vector<double> ranges =
      heterogeneous_ranges(kNodes, 110.0 * 0.85, 110.0 * 1.15, rng);
  std::vector<bool> mobile(kNodes, false);
  for (std::size_t i = 0; i < kNodes / 100; ++i) {
    mobile[i] = true;
    positions[i] = {rng.uniform_real(0.0, side / 8.0),
                    rng.uniform_real(0.0, side / 8.0)};
  }
  auto mobility = std::make_unique<RandomDirectionMobility>(
      bounds, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
      rng.fork(0x30B));
  return World(bounds, std::move(positions),
               RadioModel(std::move(ranges), RangeScaling{0.6}),
               BatteryBank(kNodes, mobile, BatteryParams{1.0, 0.005}),
               std::move(mobility), LinkPolicy::kSymmetricAnd);
}

/// The convoy's digest after 300 steps, with shard threads
/// `threads_at(step)` set before each step.
template <class ThreadsAt>
std::uint64_t convoy_digest(ThreadsAt threads_at) {
  obs::RunObs slot;
  slot.metrics.enable(1);
  obs::ObsRunScope scope(slot);
  World world = convoy_world();
  for (int t = 0; t < 300; ++t) {
    world.set_shard_threads(threads_at(t));
    world.advance();
  }
  snapshot::ByteWriter w;
  world.save_state(w);
  const auto alive = static_cast<std::size_t>(obs::Gauge::kBatteryAlive);
  for (const obs::MetricsRow& row : slot.metrics.rows()) {
    EXPECT_TRUE(row.has_gauge[alive]) << "step " << row.step;
    w.u64(row.step);
    w.f64(row.gauges[alive]);
  }
  EXPECT_EQ(slot.metrics.rows().size(), 300u);
  if (slot.metrics.rows().size() == 300u) {
    EXPECT_EQ(slot.metrics.rows().front().gauges[alive], 1.0);
    EXPECT_EQ(slot.metrics.rows().back().gauges[alive], 0.99);
  }
  return fnv1a(w.bytes());
}

constexpr std::uint64_t kConvoyGolden = 0x497b459be04e6ef7ull;

TEST(ShardedWorldTest, ConvoyGoldenAtShardThreadsOneAndFour) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    EXPECT_EQ(convoy_digest([threads](int) { return threads; }), kConvoyGolden)
        << "threads " << threads;
  }
}

// Shard threads 4 → 2 → 1 → 4 mid-run: each change drops the team and the
// next advance() builds one of the new size; the run stays on the golden.
TEST(ShardedWorldTest, ConvoyGoldenAcrossShardThreadChanges) {
  constexpr std::size_t kPlan[] = {4, 2, 1, 4};
  EXPECT_EQ(convoy_digest([&](int t) { return kPlan[t / 75]; }),
            kConvoyGolden);
}

/// A crowd above the gather grain: half of 4,000 nodes move on battery, so
/// every step gathers more than TopologyBuilder::kGatherGrain dirty rows.
World crowd_world() {
  constexpr std::size_t kNodes = 4'000;
  Rng rng(0xC1);
  const double side = 1000.0 * std::sqrt(static_cast<double>(kNodes) / 250.0);
  const Aabb bounds{{0.0, 0.0}, {side, side}};
  std::vector<Vec2> positions = random_positions(kNodes, bounds, rng);
  std::vector<double> ranges =
      heterogeneous_ranges(kNodes, 110.0 * 0.85, 110.0 * 1.15, rng);
  std::vector<bool> mobile(kNodes, false);
  for (std::size_t i = 0; i < kNodes; i += 2) mobile[i] = true;
  auto mobility = std::make_unique<RandomDirectionMobility>(
      bounds, mobile, RandomDirectionMobility::Params{0.5, 3.0, 0.05},
      rng.fork(0x30B));
  return World(bounds, std::move(positions),
               RadioModel(std::move(ranges), RangeScaling{0.6}),
               BatteryBank(kNodes, mobile, BatteryParams{1.0, 0.005}),
               std::move(mobility), LinkPolicy::kSymmetricAnd);
}

// The fanned-out row gather, with the team rebuilt at every shard-thread
// change, tracks the serial world step by step.
TEST(ShardedWorldTest, CrowdFansOutAndMatchesSerialAcrossTeamRebuilds) {
  constexpr std::size_t kPlan[] = {4, 2, 7, 1, 4};
  constexpr int kStepsPerSetting = 4;
  World serial = crowd_world();
  serial.set_shard_threads(1);
  World teamed = crowd_world();
  for (int t = 0; t < kStepsPerSetting * 5; ++t) {
    teamed.set_shard_threads(kPlan[t / kStepsPerSetting]);
    const std::vector<Vec2> before_pos = teamed.positions();
    const std::vector<double> before_ranges = quantized_ranges(teamed, 0.0);
    serial.advance();
    teamed.advance();
    EXPECT_GT(changed_nodes(before_pos, before_ranges, teamed),
              TopologyBuilder::kGatherGrain)
        << "step " << t;
    ASSERT_EQ(teamed.graph(), serial.graph()) << "step " << t;
    ASSERT_EQ(teamed.epoch(), serial.epoch()) << "step " << t;
  }
  EXPECT_EQ(teamed.graph(), full_rebuild_oracle(teamed, 0.0));
  snapshot::ByteWriter a;
  snapshot::ByteWriter b;
  serial.save_state(a);
  teamed.save_state(b);
  EXPECT_EQ(a.bytes(), b.bytes());
}

}  // namespace
}  // namespace agentnet

#include "core/mapping_task.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "net/generators.hpp"
#include "obs/obs.hpp"

namespace agentnet {
namespace {

GeneratedNetwork small_network(std::uint64_t seed = 5) {
  TargetEdgeParams params;
  params.geometry.node_count = 60;
  params.target_edges = 320;
  params.tolerance = 0.05;
  return generate_target_edge_network(params, seed);
}

MappingTaskConfig config(MappingPolicy policy, StigmergyMode mode,
                         int population) {
  MappingTaskConfig cfg;
  cfg.population = population;
  cfg.agent = {policy, mode};
  cfg.max_steps = 100000;
  return cfg;
}

TEST(MappingTaskTest, SingleConscientiousFinishes) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world, config(MappingPolicy::kConscientious, StigmergyMode::kOff, 1),
      Rng(1));
  ASSERT_TRUE(result.finished);
  EXPECT_GT(result.finishing_time, net.graph.node_count())
      << "cannot map faster than visiting every node";
  EXPECT_EQ(result.truth_edges, net.graph.edge_count());
}

TEST(MappingTaskTest, SingleRandomFinishes) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world, config(MappingPolicy::kRandom, StigmergyMode::kOff, 1), Rng(1));
  EXPECT_TRUE(result.finished);
}

TEST(MappingTaskTest, KnowledgeSeriesMonotoneOnStaticNetwork) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world, config(MappingPolicy::kConscientious, StigmergyMode::kOff, 3),
      Rng(2));
  ASSERT_TRUE(result.finished);
  ASSERT_FALSE(result.mean_knowledge.empty());
  for (std::size_t t = 1; t < result.mean_knowledge.size(); ++t) {
    EXPECT_GE(result.mean_knowledge[t], result.mean_knowledge[t - 1] - 1e-12);
    EXPECT_GE(result.min_knowledge[t], result.min_knowledge[t - 1] - 1e-12);
  }
  EXPECT_DOUBLE_EQ(result.mean_knowledge.back(), 1.0);
  EXPECT_DOUBLE_EQ(result.min_knowledge.back(), 1.0);
}

TEST(MappingTaskTest, SeriesLengthMatchesFinishingTime) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world, config(MappingPolicy::kConscientious, StigmergyMode::kOff, 5),
      Rng(3));
  ASSERT_TRUE(result.finished);
  EXPECT_EQ(result.mean_knowledge.size(), result.finishing_time + 1);
}

TEST(MappingTaskTest, MinKnowledgeNeverExceedsMean) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world, config(MappingPolicy::kRandom, StigmergyMode::kOff, 5), Rng(4));
  for (std::size_t t = 0; t < result.mean_knowledge.size(); ++t)
    EXPECT_LE(result.min_knowledge[t], result.mean_knowledge[t] + 1e-12);
}

TEST(MappingTaskTest, CooperationHelps) {
  const auto net = small_network();
  World w1 = World::frozen(net);
  const auto solo = run_mapping_task(
      w1, config(MappingPolicy::kConscientious, StigmergyMode::kOff, 1),
      Rng(5));
  World w2 = World::frozen(net);
  const auto team = run_mapping_task(
      w2, config(MappingPolicy::kConscientious, StigmergyMode::kOff, 10),
      Rng(5));
  ASSERT_TRUE(solo.finished);
  ASSERT_TRUE(team.finished);
  EXPECT_LT(team.finishing_time, solo.finishing_time);
}

TEST(MappingTaskTest, CommunicationOffSlowsTeams) {
  const auto net = small_network();
  auto with = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 8);
  auto without = with;
  without.communication = false;
  // Average over a few seeds; a single run can go either way.
  double sum_with = 0.0, sum_without = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    World w1 = World::frozen(net);
    World w2 = World::frozen(net);
    const auto a = run_mapping_task(w1, with, Rng(100 + s));
    const auto b = run_mapping_task(w2, without, Rng(100 + s));
    ASSERT_TRUE(a.finished && b.finished);
    sum_with += static_cast<double>(a.finishing_time);
    sum_without += static_cast<double>(b.finishing_time);
  }
  EXPECT_LT(sum_with, sum_without);
}

TEST(MappingTaskTest, DeterministicForSameSeed) {
  const auto net = small_network();
  World w1 = World::frozen(net);
  World w2 = World::frozen(net);
  const auto cfg =
      config(MappingPolicy::kSuperConscientious, StigmergyMode::kFilterFirst,
             7);
  const auto a = run_mapping_task(w1, cfg, Rng(42));
  const auto b = run_mapping_task(w2, cfg, Rng(42));
  EXPECT_EQ(a.finishing_time, b.finishing_time);
  EXPECT_EQ(a.mean_knowledge, b.mean_knowledge);
}

TEST(MappingTaskTest, DifferentSeedsUsuallyDiffer) {
  const auto net = small_network();
  World w1 = World::frozen(net);
  World w2 = World::frozen(net);
  const auto cfg =
      config(MappingPolicy::kRandom, StigmergyMode::kOff, 1);
  const auto a = run_mapping_task(w1, cfg, Rng(1));
  const auto b = run_mapping_task(w2, cfg, Rng(2));
  EXPECT_NE(a.finishing_time, b.finishing_time);
}

TEST(MappingTaskTest, StigmergyHelpsSingleRandomAgent) {
  const auto net = small_network();
  double plain = 0.0, stig = 0.0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    World w1 = World::frozen(net);
    World w2 = World::frozen(net);
    const auto a = run_mapping_task(
        w1, config(MappingPolicy::kRandom, StigmergyMode::kOff, 1),
        Rng(200 + s));
    const auto b = run_mapping_task(
        w2, config(MappingPolicy::kRandom, StigmergyMode::kFilterFirst, 1),
        Rng(200 + s));
    ASSERT_TRUE(a.finished && b.finished);
    plain += static_cast<double>(a.finishing_time);
    stig += static_cast<double>(b.finishing_time);
  }
  EXPECT_LT(stig, plain);
}

TEST(MappingTaskTest, RecordSeriesOffLeavesSeriesEmpty) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 1);
  cfg.record_series = false;
  const auto result = run_mapping_task(world, cfg, Rng(6));
  EXPECT_TRUE(result.finished);
  EXPECT_TRUE(result.mean_knowledge.empty());
}

TEST(MappingTaskTest, MaxStepsAbortsUnfinished) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kRandom, StigmergyMode::kOff, 1);
  cfg.max_steps = 5;  // far too few
  const auto result = run_mapping_task(world, cfg, Rng(7));
  EXPECT_FALSE(result.finished);
  EXPECT_EQ(result.mean_knowledge.size(), 6u);  // steps 0..5 recorded
}

TEST(MappingTaskTest, MigrationBytesAccumulate) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world, config(MappingPolicy::kConscientious, StigmergyMode::kOff, 3),
      Rng(21));
  ASSERT_TRUE(result.finished);
  // Every move ships at least the 64-byte stub; 3 agents move nearly every
  // step of the run.
  EXPECT_GE(result.migration_bytes,
            64u * result.finishing_time);
  EXPECT_GT(result.migration_bytes, 0u);
}

TEST(MappingTaskTest, StigmergyCostsNoExtraMigrationBytes) {
  // Same seed, same policy: footprints live on nodes, so the stigmergic
  // agent's serialized size — hence bytes for the steps both runs share —
  // must not carry any footprint payload. We verify the accounting uses
  // only knowledge size: a fresh agent's size is the 64-byte stub.
  const EdgeIndex index{Graph(10)};
  MappingAgent agent(0, 0, index, {}, Rng(1));
  EXPECT_EQ(agent.state_size_bytes(), 64u);
}

TEST(MappingTaskTest, RandomnessDialStillFinishes) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kSuperConscientious, StigmergyMode::kOff,
                    10);
  cfg.agent.randomness = 0.2;
  const auto result = run_mapping_task(world, cfg, Rng(22));
  EXPECT_TRUE(result.finished);
}

TEST(MappingTaskTest, RandomnessHelpsCrowdedSuperConscientious) {
  const auto net = small_network();
  auto plain = config(MappingPolicy::kSuperConscientious, StigmergyMode::kOff,
                      20);
  plain.record_series = false;
  auto jittered = plain;
  jittered.agent.randomness = 0.2;
  double plain_sum = 0.0, jit_sum = 0.0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    World w1 = World::frozen(net);
    World w2 = World::frozen(net);
    plain_sum += static_cast<double>(
        run_mapping_task(w1, plain, Rng(300 + s)).finishing_time);
    jit_sum += static_cast<double>(
        run_mapping_task(w2, jittered, Rng(300 + s)).finishing_time);
  }
  EXPECT_LT(jit_sum, plain_sum);
}

TEST(MappingTaskTest, HeterogeneousTeamRuns) {
  const auto net = small_network();
  World world = World::frozen(net);
  MappingTaskConfig cfg;
  cfg.team = {
      {MappingPolicy::kRandom, StigmergyMode::kOff},
      {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst},
      {MappingPolicy::kSuperConscientious, StigmergyMode::kOff},
      {MappingPolicy::kConscientious, StigmergyMode::kOff},
  };
  const auto result = run_mapping_task(world, cfg, Rng(41));
  EXPECT_TRUE(result.finished);
}

TEST(MappingTaskTest, RosterOverridesPopulation) {
  const auto net = small_network();
  // population says 1, roster says 6: the roster must win — a 6-agent team
  // with communication finishes far faster than any single agent.
  MappingTaskConfig solo_cfg;
  solo_cfg.population = 1;
  solo_cfg.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  MappingTaskConfig roster_cfg = solo_cfg;
  roster_cfg.team.assign(6, solo_cfg.agent);
  double solo = 0.0, roster = 0.0;
  for (std::uint64_t s = 0; s < 4; ++s) {
    World w1 = World::frozen(net);
    World w2 = World::frozen(net);
    solo += static_cast<double>(
        run_mapping_task(w1, solo_cfg, Rng(500 + s)).finishing_time);
    roster += static_cast<double>(
        run_mapping_task(w2, roster_cfg, Rng(500 + s)).finishing_time);
  }
  EXPECT_LT(roster, solo);
}

TEST(MappingTaskTest, MonitorCollectsTheMap) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 8);
  cfg.monitor_node = 0;
  const auto result = run_mapping_task(world, cfg, Rng(31));
  ASSERT_TRUE(result.finished);
  EXPECT_TRUE(result.monitor_finished)
      << "agents criss-cross a strongly connected net; the monitor must "
         "eventually hear everything";
  EXPECT_LE(result.monitor_finishing_time, result.finishing_time);
  EXPECT_DOUBLE_EQ(result.monitor_completeness, 1.0);
}

TEST(MappingTaskTest, MonitorUnsetReportsNothing) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world, config(MappingPolicy::kConscientious, StigmergyMode::kOff, 4),
      Rng(32));
  EXPECT_FALSE(result.monitor_finished);
  EXPECT_DOUBLE_EQ(result.monitor_completeness, 0.0);
}

TEST(MappingTaskTest, MonitorNodeValidated) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kRandom, StigmergyMode::kOff, 2);
  cfg.monitor_node = static_cast<NodeId>(net.graph.node_count() + 5);
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
}

TEST(MappingTaskTest, InRangeMeetingsSpeedTeamsUp) {
  const auto net = small_network();
  auto near_cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff,
                         10);
  near_cfg.record_series = false;
  auto far_cfg = near_cfg;
  far_cfg.comm_radius = 1;
  double near_sum = 0.0, far_sum = 0.0;
  for (std::uint64_t s = 0; s < 5; ++s) {
    World w1 = World::frozen(net);
    World w2 = World::frozen(net);
    near_sum += static_cast<double>(
        run_mapping_task(w1, near_cfg, Rng(400 + s)).finishing_time);
    far_sum += static_cast<double>(
        run_mapping_task(w2, far_cfg, Rng(400 + s)).finishing_time);
  }
  EXPECT_LT(far_sum, near_sum)
      << "more meeting opportunity must not slow the team";
}

TEST(MappingTaskTest, CommRadiusValidated) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 3);
  cfg.comm_radius = 2;
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
}

TEST(MappingAgentConfigTest, RejectsBadRandomness) {
  const EdgeIndex index{Graph(4)};
  EXPECT_THROW(MappingAgent(0, 0, index,
                            {MappingPolicy::kRandom, StigmergyMode::kOff,
                             1.5},
                            Rng(1)),
               ConfigError);
}

// Config-bounds validation: garbage configurations must fail loudly, not
// silently misbehave (mirrors the routing task's discipline).
TEST(MappingTaskTest, RejectsNonPositivePopulation) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 0);
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
  cfg.population = -3;
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
}

TEST(MappingTaskTest, RejectsOutOfRangeRandomness) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 3);
  cfg.agent.randomness = 1.5;
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
  cfg.agent.randomness = -0.1;
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
}

TEST(MappingTaskTest, RejectsBadTeamMemberRandomness) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 3);
  cfg.team = {{MappingPolicy::kRandom, StigmergyMode::kOff, 0.5},
              {MappingPolicy::kRandom, StigmergyMode::kOff, 2.0}};
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
}

TEST(MappingTaskTest, RejectsZeroStigmergyCapacity) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 3);
  cfg.stigmergy_capacity = 0;
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
}

TEST(MappingTaskTest, MergeEventsNameTheAgentThatMoved) {
  // Losses compact the live agent vector, so an agent's index and its id
  // part after the first one; a merge must still name the id that its
  // move events carry, standing where that agent's last move put it.
  const auto net = small_network();
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 10);
  cfg.max_steps = 400;
  cfg.faults.agent_loss_probability = 0.03;
  cfg.faults.watchdog_ttl = 20;
  obs::RunObs slot;
  slot.trace.enable();
  {
    obs::ObsRunScope scope(slot);
    World world = World::frozen(net);
    run_mapping_task(world, cfg, Rng(13));
  }
  const std::vector<obs::TraceEvent>& events = slot.trace.events();
  std::set<std::int64_t> movers;
  for (const obs::TraceEvent& e : events)
    if (e.kind == obs::TraceEventKind::kMove) movers.insert(e.agent);
  std::map<std::int64_t, std::int64_t> at;  // agent id → its latest node
  std::size_t merges = 0;
  std::size_t lost = 0;
  for (const obs::TraceEvent& e : events) {
    switch (e.kind) {
      case obs::TraceEventKind::kLost:
        ++lost;
        break;
      case obs::TraceEventKind::kMove:
        at[e.agent] = e.b;
        break;
      case obs::TraceEventKind::kWatchdogRespawn:
        at[e.agent] = e.a;
        break;
      case obs::TraceEventKind::kMerge: {
        ++merges;
        EXPECT_TRUE(movers.count(e.agent))
            << "merge at step " << e.step << " names agent " << e.agent
            << ", which never moves";
        const auto known = at.find(e.agent);
        if (known != at.end()) {
          EXPECT_EQ(known->second, e.a)
              << "merge at step " << e.step << " of agent " << e.agent;
        }
        break;
      }
      default:
        break;
    }
  }
  EXPECT_GT(lost, 0u) << "the run must lose agents";
  EXPECT_GT(merges, 0u) << "the run must hold meetings";
}

TEST(MappingTaskTest, RejectsInvalidFaultPlan) {
  const auto net = small_network();
  World world = World::frozen(net);
  auto cfg = config(MappingPolicy::kConscientious, StigmergyMode::kOff, 3);
  cfg.faults.agent_loss_probability = 1.5;
  EXPECT_THROW(run_mapping_task(world, cfg, Rng(1)), ConfigError);
}

// Population sweep property: finishing time is non-increasing (in
// aggregate) as the team grows.
class PopulationSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PopulationSweepTest, TeamsFinish) {
  const auto net = small_network();
  World world = World::frozen(net);
  const auto result = run_mapping_task(
      world,
      config(MappingPolicy::kConscientious, StigmergyMode::kOff, GetParam()),
      Rng(11));
  EXPECT_TRUE(result.finished);
}

INSTANTIATE_TEST_SUITE_P(Teams, PopulationSweepTest,
                         ::testing::Values(1, 2, 5, 10, 20));

}  // namespace
}  // namespace agentnet

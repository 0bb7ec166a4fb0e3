// The paper's claims as statistical tests (ctest label `paper`). Each test
// runs two configurations with the paper's fixed run seeds at reduced
// replication and asserts that the 95% confidence intervals on the mean
// separate in the claimed direction: the mapping claims of Figs 5-6 on the
// 300-node network (finishing time), the routing visiting claims of Figs
// 10-11 on the 250-node mobile scenario (converged connectivity). The
// 40-run values are in paper_protocol_results.txt.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/paper.hpp"
#include "experiments/routing_experiments.hpp"
#include "net/generators.hpp"

namespace agentnet {
namespace {

// Replications per policy: enough for the intervals to separate. The Fig 6
// gap (~18%) is far narrower than the Fig 5 gaps, so it needs more runs.
constexpr int kMinarRuns = 12;
constexpr int kStigmergicRuns = 32;
// Routing replications per setting (Figs 8 and 10-11, history 10).
constexpr int kRoutingRuns = 10;

const GeneratedNetwork& paper_network() {
  static const GeneratedNetwork net =
      paper_mapping_network(paper::kMappingNetworkSeed);
  return net;
}

RunningStats finishing_times(MappingPolicy policy, StigmergyMode stigmergy,
                             int population, int runs) {
  MappingTaskConfig task;
  task.population = population;
  task.agent = {policy, stigmergy};
  task.record_series = false;
  const MappingSummary s =
      run_mapping_experiment(paper_network(), task, runs,
                             paper::kRunSeedBase, 0, obs::ObsConfig{});
  EXPECT_EQ(s.unfinished, 0u) << "population " << population;
  return s.finishing_time;
}

/// Per-run mean connectivity over the converged window for `population`
/// agents with history 10 on the paper's routing scenario. With several
/// runs the experiment replays one recorded world (docs/PERFORMANCE.md).
RunningStats connectivity(RoutingPolicy policy, bool visiting, int runs,
                          int population = 100) {
  static const RoutingScenario scenario{RoutingScenarioParams{},
                                        paper::kRoutingScenarioSeed};
  RoutingTaskConfig task;
  task.steps = paper::kRoutingSteps;
  task.measure_from = paper::kRoutingMeasureFrom;
  task.population = population;
  task.agent.policy = policy;
  task.agent.history_size = 10;
  task.agent.communicate = visiting;
  return run_routing_experiment(scenario, task, runs, paper::kRunSeedBase, 0,
                                obs::ObsConfig{}, FaultPlan{})
      .mean_connectivity;
}

/// Succeeds when the 95% interval of `slower`'s mean lies wholly above
/// `faster`'s.
::testing::AssertionResult separates_above(const RunningStats& slower,
                                           const RunningStats& faster) {
  const double hs = confidence_halfwidth(slower);
  const double hf = confidence_halfwidth(faster);
  if (slower.mean() - hs > faster.mean() + hf)
    return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "intervals do not separate: " << slower.mean() << " ± " << hs
         << " vs " << faster.mean() << " ± " << hf;
}

// Fig 5: after a meeting, Minar super-conscientious agents share one map,
// pick the same next node and chase each other, so they map more slowly
// than conscientious agents once the population is large (40 runs: 1.5x at
// 15 agents, 3.1x at 50).
TEST(PaperClaimsTest, Fig5MinarSuperConscientiousSlowerThanConscientious) {
  for (const int population : {15, 50}) {
    SCOPED_TRACE(::testing::Message() << "population " << population);
    EXPECT_TRUE(separates_above(
        finishing_times(MappingPolicy::kSuperConscientious,
                        StigmergyMode::kOff, population, kMinarRuns),
        finishing_times(MappingPolicy::kConscientious, StigmergyMode::kOff,
                        population, kMinarRuns)));
  }
}

// Fig 6: stigmergy disperses agents that share a map, so stigmergic
// super-conscientious agents map faster than stigmergic conscientious ones
// (40 runs: 0.8x at 15 and at 50 agents).
TEST(PaperClaimsTest, Fig6StigmergicSuperConscientiousFasterThanConscientious) {
  for (const int population : {15, 50}) {
    SCOPED_TRACE(::testing::Message() << "population " << population);
    EXPECT_TRUE(separates_above(
        finishing_times(MappingPolicy::kConscientious,
                        StigmergyMode::kFilterFirst, population,
                        kStigmergicRuns),
        finishing_times(MappingPolicy::kSuperConscientious,
                        StigmergyMode::kFilterFirst, population,
                        kStigmergicRuns)));
  }
}

// Fig 8: more oldest-node agents keep more nodes connected (40 runs at
// history 10: 0.491 at 25 agents, 0.592 at 100).
TEST(PaperClaimsTest, Fig8ConnectivityGrowsWithPopulation) {
  const RunningStats few =
      connectivity(RoutingPolicy::kOldestNode, false, kRoutingRuns, 25);
  const RunningStats some =
      connectivity(RoutingPolicy::kOldestNode, false, kRoutingRuns, 100);
  const RunningStats many =
      connectivity(RoutingPolicy::kOldestNode, false, kRoutingRuns, 250);
  EXPECT_TRUE(separates_above(some, few)) << "25 vs 100 agents";
  EXPECT_TRUE(separates_above(many, some)) << "100 vs 250 agents";
}

// Fig 10: visiting (best-route exchange + history merge) helps random
// agents — merged histories steer them apart (40 runs at history 10: 0.575
// without visiting, 0.623 with).
TEST(PaperClaimsTest, Fig10VisitingRaisesRandomAgentConnectivity) {
  EXPECT_TRUE(
      separates_above(connectivity(RoutingPolicy::kRandom, true, kRoutingRuns),
                      connectivity(RoutingPolicy::kRandom, false,
                                   kRoutingRuns)));
}

// Fig 11: visiting hurts oldest-node agents — identical merged histories
// make them pick the same oldest node and chase each other (40 runs at
// history 10: 0.592 without visiting, 0.461 with).
TEST(PaperClaimsTest, Fig11VisitingLowersOldestNodeConnectivity) {
  EXPECT_TRUE(separates_above(
      connectivity(RoutingPolicy::kOldestNode, false, kRoutingRuns),
      connectivity(RoutingPolicy::kOldestNode, true, kRoutingRuns)));
}

}  // namespace
}  // namespace agentnet

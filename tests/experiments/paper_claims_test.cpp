// The paper's mapping claims for Figs 5-6 as statistical tests (ctest label
// `paper`). Each test runs two policies on the paper's 300-node network
// with the paper's fixed run seeds at reduced replication, and asserts
// that the 95% confidence intervals on the mean finishing time separate in
// the claimed direction. The 40-run ratios are in paper_protocol_results.txt.
#include <gtest/gtest.h>

#include "common/stats.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/paper.hpp"
#include "net/generators.hpp"

namespace agentnet {
namespace {

// Replications per policy: enough for the intervals to separate. The Fig 6
// gap (~18%) is far narrower than the Fig 5 gaps, so it needs more runs.
constexpr int kMinarRuns = 12;
constexpr int kStigmergicRuns = 32;

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

}  // namespace
}  // namespace agentnet

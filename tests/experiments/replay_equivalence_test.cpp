// Shared world script, experiment level (ctest label: perf): at runs >= 2
// run_routing_experiment and run_traffic_experiment record the scenario's
// world once and every replication replays it. Their summaries, counter
// totals and trace + metrics JSONL bytes must equal a loop of live single
// runs — at every thread count, and under a chaos plan with topology
// faults, where the oracle falls back to its BFS on the masked graph
// (docs/PERFORMANCE.md, "Shared world script").
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "experiments/routing_experiments.hpp"
#include "experiments/traffic_experiments.hpp"
#include "obs/obs.hpp"

namespace agentnet {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

/// What one experiment leaves behind: counter totals plus the two
/// deterministic JSONL streams.
struct Artefacts {
  obs::MetricsSnapshot counters;
  std::string trace;
  std::string metrics;
};

/// Runs `experiment` with a private sink and trace + metrics wired to fresh
/// files named by `tag`.
template <typename Fn>
Artefacts run_leg(const std::string& tag, const Fn& experiment) {
  obs::RunObs sink;
  ObsConfig config;
  config.sink = &sink;
  config.trace_path = ::testing::TempDir() + "/" + tag + ".trace.jsonl";
  config.metrics_path = ::testing::TempDir() + "/" + tag + ".metrics.jsonl";
  experiment(config);
  return {obs::snapshot(sink.counters), read_file(*config.trace_path),
          read_file(*config.metrics_path)};
}

void expect_same(const Artefacts& a, const Artefacts& b,
                 const std::string& where) {
  EXPECT_EQ(a.counters, b.counters) << where;
  EXPECT_EQ(a.trace, b.trace) << where;
  EXPECT_EQ(a.metrics, b.metrics) << where;
}

/// The harness loop without the script: run r live in its own slot, merged
/// in run-index order — what every experiment did before replay existed.
template <typename Task, typename RunOne>
void live_loop(const Task& task, int runs, std::uint64_t seed,
               const ObsConfig& config, const RunOne& run_one) {
  std::vector<obs::RunObs> slots(static_cast<std::size_t>(runs));
  obs::enable_slots(slots, config);
  for (int r = 0; r < runs; ++r) {
    obs::ObsRunScope scope(slots[static_cast<std::size_t>(r)]);
    run_one(task, Rng(seed + static_cast<std::uint64_t>(r)));
  }
  obs::merge_and_write(slots, config, seed, runs, 1);
}

RoutingScenario tiny_scenario() {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 70;
  return RoutingScenario(params, 17);
}

FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.node_crash_probability = 0.04;
  plan.crash_persistence = 5;
  plan.burst_drop_probability = 0.05;
  plan.agent_loss_probability = 0.02;
  plan.gateway_respawn_probability = 0.05;
  plan.exchange_failure_probability = 0.1;
  plan.blackouts.push_back({{175.0, 175.0}, 60.0, 20, 15});
  plan.watchdog_ttl = 20;
  return plan;
}

void expect_same_series(const SeriesAccumulator& a, const SeriesAccumulator& b,
                        const std::string& where) {
  ASSERT_EQ(a.length(), b.length()) << where;
  EXPECT_EQ(a.runs(), b.runs()) << where;
  EXPECT_EQ(a.mean(), b.mean()) << where;
  EXPECT_EQ(a.stddev(), b.stddev()) << where;
}

void expect_same_stats(const RunningStats& a, const RunningStats& b,
                       const std::string& where) {
  EXPECT_EQ(a.count(), b.count()) << where;
  EXPECT_EQ(a.mean(), b.mean()) << where;
  EXPECT_EQ(a.variance(), b.variance()) << where;
}

#if AGENTNET_OBS_LEVEL >= 1

TEST(ReplayEquivalenceTest, RoutingExperimentMatchesLiveRuns) {
  const RoutingScenario scenario = tiny_scenario();
  const int runs = 3;
  const std::uint64_t seed = 4242;
  for (const bool chaos : {false, true}) {
    RoutingTaskConfig task;
    task.population = 12;
    task.steps = 60;
    task.measure_from = 30;
    task.record_oracle = true;
    task.agent.communicate = true;
    if (chaos) task.faults = chaos_plan();
    const std::string kind = chaos ? "chaos" : "plain";

    RoutingSummary reference;
    reference.runs = runs;
    const Artefacts live =
        run_leg("rp_live_" + kind, [&](const ObsConfig& config) {
          live_loop(task, runs, seed, config,
                    [&](const RoutingTaskConfig& t, Rng rng) {
                      const RoutingTaskResult result =
                          run_routing_task(scenario, t, rng);
                      reference.mean_connectivity.add(result.mean_connectivity);
                      reference.window_stddev.add(result.stddev_connectivity);
                      reference.connectivity.add(result.connectivity);
                      reference.oracle.add(result.oracle);
                    });
        });
    EXPECT_GT(live.counters.value(obs::Counter::kTopoNodesDirty), 0u);
    if (chaos) {
      EXPECT_GT(live.counters.value(obs::Counter::kNodeCrashes), 0u);
    }

    for (const int threads : {1, 2, 7}) {
      const std::string where = kind + " threads=" + std::to_string(threads);
      RoutingSummary replayed;
      const Artefacts replay = run_leg(
          "rp_replay_" + kind + "_t" + std::to_string(threads),
          [&](const ObsConfig& config) {
            replayed = run_routing_experiment(scenario, task, runs, seed,
                                              threads, config, FaultPlan{});
          });
      expect_same(replay, live, where);
      expect_same_stats(replayed.mean_connectivity,
                        reference.mean_connectivity, where);
      expect_same_stats(replayed.window_stddev, reference.window_stddev,
                        where);
      expect_same_series(replayed.connectivity, reference.connectivity,
                         where);
      expect_same_series(replayed.oracle, reference.oracle, where);
    }
  }
}

TEST(ReplayEquivalenceTest, TrafficExperimentMatchesLiveRuns) {
  const RoutingScenario scenario = tiny_scenario();
  const int runs = 3;
  const std::uint64_t seed = 7;
  for (const bool chaos : {false, true}) {
    TrafficTaskConfig task;
    task.steps = 60;
    task.measure_from = 30;
    task.workload.offered_load = 0.4;
    if (chaos) task.faults = chaos_plan();
    const std::string kind = chaos ? "chaos" : "plain";

    TrafficSummary reference;
    const Artefacts live =
        run_leg("tf_live_" + kind, [&](const ObsConfig& config) {
          live_loop(task, runs, seed, config,
                    [&](const TrafficTaskConfig& t, Rng rng) {
                      const TrafficTaskResult result =
                          run_traffic_task(scenario, t, rng);
                      reference.traffic += result.traffic;
                      reference.mean_connectivity.add(result.mean_connectivity);
                      reference.offered_load.add(result.offered_load);
                      reference.carried_load.add(result.carried_load);
                    });
        });
    EXPECT_GT(live.counters.value(obs::Counter::kPacketsDelivered), 0u);

    for (const int threads : {1, 2, 7}) {
      const std::string where = kind + " threads=" + std::to_string(threads);
      TrafficSummary replayed;
      const Artefacts replay = run_leg(
          "tf_replay_" + kind + "_t" + std::to_string(threads),
          [&](const ObsConfig& config) {
            replayed = run_traffic_experiment(scenario, task, runs, seed,
                                              threads, config, FaultPlan{});
          });
      expect_same(replay, live, where);
      EXPECT_TRUE(replayed.traffic == reference.traffic) << where;
      expect_same_stats(replayed.mean_connectivity,
                        reference.mean_connectivity, where);
      expect_same_stats(replayed.offered_load, reference.offered_load, where);
      expect_same_stats(replayed.carried_load, reference.carried_load, where);
    }
  }
}

#endif  // AGENTNET_OBS_LEVEL >= 1

TEST(ReplayEquivalenceTest, SingleRunsKeepTheLiveWorld) {
  // runs == 1 records nothing: the experiment is exactly one live task.
  const RoutingScenario scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 10;
  task.steps = 50;
  task.measure_from = 25;
  task.record_oracle = true;
  const RoutingSummary one =
      run_routing_experiment(scenario, task, 1, 99, 1, ObsConfig{},
                             FaultPlan{});
  const RoutingTaskResult direct = run_routing_task(scenario, task, Rng(99));
  ASSERT_EQ(one.connectivity.length(), direct.connectivity.size());
  EXPECT_EQ(one.connectivity.mean(), direct.connectivity);
  EXPECT_EQ(one.oracle.mean(), direct.oracle);
}

}  // namespace
}  // namespace agentnet

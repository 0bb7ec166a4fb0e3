// Regression suite for the parallel replication engine: experiment
// summaries must be bit-identical at every thread count, and the mergeable
// accumulators must agree with their single-pass references.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "aco/ant_routing_task.hpp"
#include "adv/dv_agent.hpp"
#include "common/fork_join.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/replicate.hpp"
#include "experiments/routing_experiments.hpp"

namespace agentnet {
namespace {

GeneratedNetwork tiny_network() {
  TargetEdgeParams params;
  params.geometry.node_count = 50;
  params.target_edges = 260;
  params.tolerance = 0.05;
  return generate_target_edge_network(params, 3);
}

RoutingScenario tiny_scenario() {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 60;
  return RoutingScenario(params, 17);
}

void expect_identical(const RunningStats& a, const RunningStats& b) {
  ASSERT_EQ(a.count(), b.count());
  if (a.empty()) return;
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.variance(), b.variance());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

void expect_identical(const SeriesAccumulator& a, const SeriesAccumulator& b) {
  ASSERT_EQ(a.length(), b.length());
  ASSERT_EQ(a.runs(), b.runs());
  for (std::size_t i = 0; i < a.length(); ++i)
    expect_identical(a.at(i), b.at(i));
}

// The paper protocol's guarantee: AGENTNET_THREADS only changes wall-clock,
// never a single bit of any table. {1, 2, 7} covers the serial path, an
// even split and a worker count that does not divide the run count.
TEST(ParallelDeterminismTest, MappingBitIdenticalAcrossThreadCounts) {
  const auto net = tiny_network();
  MappingTaskConfig task;
  task.population = 4;
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kFilterFirst};
  const auto serial = run_mapping_experiment(net, task, 9, 42, /*threads=*/1);
  for (int threads : {2, 7}) {
    SCOPED_TRACE(threads);
    const auto parallel = run_mapping_experiment(net, task, 9, 42, threads);
    EXPECT_EQ(parallel.runs, serial.runs);
    EXPECT_EQ(parallel.unfinished, serial.unfinished);
    expect_identical(parallel.finishing_time, serial.finishing_time);
    expect_identical(parallel.knowledge, serial.knowledge);
  }
}

TEST(ParallelDeterminismTest, RoutingBitIdenticalAcrossThreadCounts) {
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 15;
  task.steps = 60;
  task.measure_from = 30;
  task.record_oracle = true;
  const auto serial =
      run_routing_experiment(scenario, task, 5, 70, /*threads=*/1);
  for (int threads : {2, 7}) {
    SCOPED_TRACE(threads);
    const auto parallel = run_routing_experiment(scenario, task, 5, 70, threads);
    EXPECT_EQ(parallel.runs, serial.runs);
    expect_identical(parallel.mean_connectivity, serial.mean_connectivity);
    expect_identical(parallel.window_stddev, serial.window_stddev);
    expect_identical(parallel.connectivity, serial.connectivity);
    expect_identical(parallel.oracle, serial.oracle);
  }
}

// The routing task's traffic merges like TrafficSummary's: the summary is
// the run-index-order sum of every run's own stats, at any thread count.
TEST(ParallelDeterminismTest, RoutingTrafficIsTheRunOrderSum) {
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 15;
  task.steps = 60;
  task.measure_from = 30;
  task.traffic = true;
  const int runs = 4;
  const std::uint64_t seed = 80;
  FlowTrafficStats sum;
  for (int r = 0; r < runs; ++r) {
    const auto result = run_routing_task(
        scenario, task, Rng(seed + static_cast<std::uint64_t>(r)));
    ASSERT_TRUE(result.traffic_stats.has_value());
    sum += *result.traffic_stats;
  }
  ASSERT_GT(sum.delivered, 0u);
  for (int threads : {1, 7}) {
    SCOPED_TRACE(threads);
    const auto summary =
        run_routing_experiment(scenario, task, runs, seed, threads);
    EXPECT_EQ(summary.traffic, sum);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  EXPECT_TRUE(is.is_open()) << path;
  std::ostringstream out;
  out << is.rdbuf();
  return out.str();
}

/// What one replicate() call of a routing-family baseline produced: every
/// run's connectivity series and the trace and metrics streams.
struct Replicated {
  std::vector<std::vector<double>> connectivity;
  std::string trace;
  std::string metrics;
};

/// Replicates `task` five times on the tiny scenario through the harness,
/// tracing and metering into files named by `kind` and `tag`.
template <typename Task, typename RunTask>
Replicated replicate_traced(const char* kind, const std::string& tag,
                            const Task& task, int threads,
                            const FaultConfig& faults, RunTask run_task) {
  const auto scenario = tiny_scenario();
  ObsConfig obs;
  const std::string stem = ::testing::TempDir() + "/" + kind + "_" + tag;
  obs.trace_path = stem + ".trace.jsonl";
  obs.metrics_path = stem + ".metrics.jsonl";
  Replicated out;
  for (const auto& result :
       replicate({kind, 5, 70, scenario.node_count(), task.steps, threads,
                  obs, faults},
                 task, [&](const Task& config, Rng rng) {
                   return run_task(scenario, config, rng);
                 }))
    out.connectivity.push_back(result.connectivity);
  out.trace = read_file(*obs.trace_path);
  out.metrics = read_file(*obs.metrics_path);
  return out;
}

// The ant-colony and DV baselines replicate through the same harness as
// the paper's tasks: results, trace and metrics are bit-identical at
// {1, 2, 7} threads, the fault override reaches every run, and a run
// count below one is a ConfigError rather than an abort.
template <typename Task, typename RunTask>
void expect_replication_contract(const char* kind, const Task& task,
                                 RunTask run_task) {
  SCOPED_TRACE(kind);
  FaultPlan chaos;
  chaos.node_crash_probability = 0.2;
  chaos.agent_loss_probability = 0.02;
  const Replicated serial =
      replicate_traced(kind, "t1", task, 1, chaos, run_task);
#if AGENTNET_OBS_LEVEL >= 1
  EXPECT_NE(serial.trace.find("\"node_crash\""), std::string::npos);
  EXPECT_FALSE(serial.metrics.empty());
#endif
  for (int threads : {2, 7}) {
    SCOPED_TRACE(threads);
    const Replicated parallel = replicate_traced(
        kind, "t" + std::to_string(threads), task, threads, chaos, run_task);
    EXPECT_EQ(parallel.connectivity, serial.connectivity);
    EXPECT_EQ(parallel.trace, serial.trace);
    EXPECT_EQ(parallel.metrics, serial.metrics);
  }
  const Replicated calm =
      replicate_traced(kind, "calm", task, 2, FaultConfig{}, run_task);
  EXPECT_NE(calm.connectivity, serial.connectivity)
      << "the fault plan did not reach the runs";

  const auto scenario = tiny_scenario();
  for (int runs : {0, -1}) {
    EXPECT_THROW(replicate({kind, runs, 70, scenario.node_count(),
                            task.steps, 1, ObsConfig{}, FaultConfig{}},
                           task,
                           [&](const Task& config, Rng rng) {
                             return run_task(scenario, config, rng);
                           }),
                 ConfigError)
        << "runs=" << runs;
  }
}

TEST(ParallelDeterminismTest, ColonyAndDvBitIdenticalAcrossThreadCounts) {
  AntRoutingTaskConfig colony;
  colony.steps = 60;
  colony.measure_from = 30;
  expect_replication_contract("aco", colony, run_ant_routing_task);
  DvRoutingTaskConfig dv;
  dv.population = 15;
  dv.steps = 60;
  dv.measure_from = 30;
  expect_replication_contract("dv", dv, run_dv_routing_task);
}

TEST(ParallelDeterminismTest, ThreadsEnvKnobDrivesDefaultPath) {
  const auto net = tiny_network();
  MappingTaskConfig task;
  task.population = 3;
  task.agent = {MappingPolicy::kRandom, StigmergyMode::kOff};
  const auto serial = run_mapping_experiment(net, task, 6, 7, /*threads=*/1);
  ASSERT_EQ(setenv("AGENTNET_THREADS", "7", 1), 0);
  const auto via_env = run_mapping_experiment(net, task, 6, 7);
  unsetenv("AGENTNET_THREADS");
  expect_identical(via_env.finishing_time, serial.finishing_time);
  expect_identical(via_env.knowledge, serial.knowledge);
}

TEST(ForkJoinTest, RunsEveryIndexExactlyOnce) {
  ForkJoin team(5);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{1000}}) {
    std::vector<int> hits(n, 0);
    team.run(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i], 1) << "n=" << n << " i=" << i;
  }
}

// Every fourth job waits out the spin budget first, so the helpers park
// and must be woken; the rest follow back to back.
TEST(ForkJoinTest, BackToBackJobsParkAndWake) {
  ForkJoin team(4);
  std::vector<std::uint64_t> slot(64, 0);
  for (std::uint64_t job = 0; job < 10'000; ++job) {
    if (job % 4 == 0)
      std::this_thread::sleep_for(ForkJoin::kSpin +
                                  std::chrono::microseconds(50));
    team.run(slot.size(), [&](std::size_t i) { slot[i] += job + i; });
  }
  constexpr std::uint64_t kJobSum = 10'000ull * 9'999 / 2;
  for (std::size_t i = 0; i < slot.size(); ++i)
    EXPECT_EQ(slot[i], kJobSum + 10'000 * i) << "i=" << i;
}

// Chunks of 100 over a team of 4. The lowest failing chunk's exception
// surfaces, and only after every chunk has finished, including a slow one
// above it.
TEST(ForkJoinTest, RethrowsLowestChunkAfterAllChunksFinish) {
  ForkJoin team(4);
  for (const auto& [first, second, expected] :
       {std::tuple{150, 350, "150"}, std::tuple{50, 250, "50"}}) {
    std::atomic<int> done{0};
    try {
      team.run(400, [&, first = first, second = second](std::size_t i) {
        if (static_cast<int>(i) == first || static_cast<int>(i) == second)
          throw std::runtime_error(std::to_string(i));
        if (i == 399)
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        done.fetch_add(1);
      });
      ADD_FAILURE() << "no exception propagated";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), expected);
    }
    // Each failing chunk stops at its throw; every other index ran.
    EXPECT_EQ(done.load(), 400 - (100 - first % 100) - (100 - second % 100));
  }
  // The team is clean afterwards.
  std::vector<int> hits(400, 0);
  team.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// A helper still waking from a park holds up no job: the caller, done
// with its own tiny chunk, runs the chunks nobody has claimed yet.
TEST(ForkJoinTest, CallerRunsChunksOfLateHelpers) {
  ForkJoin team(4);
  const std::thread::id caller = std::this_thread::get_id();
  int caller_ran_helper_chunk = 0;
  for (int trial = 0; trial < 20; ++trial) {
    std::this_thread::sleep_for(2 * ForkJoin::kSpin);  // helpers park
    std::vector<std::thread::id> ran_on(4);
    team.run(ran_on.size(),
             [&](std::size_t i) { ran_on[i] = std::this_thread::get_id(); });
    for (std::size_t i = 1; i < ran_on.size(); ++i)
      caller_ran_helper_chunk += ran_on[i] == caller;
  }
  EXPECT_GT(caller_ran_helper_chunk, 0);
}

TEST(ForkJoinTest, DestroysWithParkedHelpers) {
  { ForkJoin never_used(4); }
  ForkJoin team(4);
  std::vector<int> hits(100, 0);
  team.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
  std::this_thread::sleep_for(10 * ForkJoin::kSpin);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelForTest, ClaimingRunsEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_claimed(
      hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
      /*threads=*/5);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

// Several failing runs: the lowest run index's exception surfaces, as in
// the serial loop, however the workers happened to claim the indices.
TEST(ParallelForTest, ClaimingRethrowsLowestFailingIndex) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3},
                                    std::size_t{7}}) {
    for (int round = 0; round < 20; ++round) {
      try {
        parallel_for_claimed(
            64,
            [](std::size_t i) {
              if (i == 41 || i == 17 || i == 63)
                throw std::runtime_error(std::to_string(i));
              if (i < 17) std::this_thread::yield();
            },
            threads);
        FAIL() << "no exception propagated";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "17") << "threads=" << threads;
      }
    }
  }
}

TEST(ParallelForTest, SerialFallbackWithoutPool) {
  std::vector<int> hits(17, 0);
  parallel_for_claimed(hits.size(), [&](std::size_t i) { ++hits[i]; },
                       /*threads=*/1);
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(RunningStatsMergeTest, MatchesSinglePassReference) {
  Rng rng(99);
  std::vector<double> values(257);
  for (auto& v : values) v = rng.normal(5.0, 3.0);

  RunningStats reference;
  for (double v : values) reference.add(v);

  RunningStats parts[3];
  for (std::size_t i = 0; i < values.size(); ++i)
    parts[i % 3].add(values[i]);
  RunningStats merged;
  for (const auto& part : parts) merged.merge(part);

  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_NEAR(merged.mean(), reference.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), reference.variance(), 1e-10);
  EXPECT_EQ(merged.min(), reference.min());
  EXPECT_EQ(merged.max(), reference.max());
}

TEST(RunningStatsMergeTest, EmptySidesAreIdentity) {
  RunningStats stats;
  stats.add(1.0);
  stats.add(3.0);
  RunningStats empty;
  stats.merge(empty);
  EXPECT_EQ(stats.count(), 2u);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.0);
  empty.merge(stats);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
  EXPECT_DOUBLE_EQ(empty.variance(), stats.variance());
}

}  // namespace
}  // namespace agentnet

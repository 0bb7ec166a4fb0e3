// Regression suite for the parallel replication engine: experiment
// summaries must be bit-identical at every thread count, and the mergeable
// accumulators must agree with their single-pass references.
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "aco/ant_routing_task.hpp"
#include "adv/dv_agent.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
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

TEST(ParallelForTest, RunsEveryIndexExactlyOnce) {
  std::vector<int> hits(1000, 0);
  ThreadPool pool(5);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ParallelForTest, PropagatesWorkerExceptions) {
  ThreadPool pool(3);
  EXPECT_THROW(parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i == 57) throw std::runtime_error("boom");
                            }),
               std::runtime_error);
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

TEST(SeriesAccumulatorMergeTest, EqualLengthMatchesSinglePass) {
  const std::vector<std::vector<double>> series = {
      {1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}, {7.0, 8.0, 9.0}, {2.0, 2.0, 2.0}};
  SeriesAccumulator reference;
  for (const auto& s : series) reference.add(s);

  SeriesAccumulator left, right;
  left.add(series[0]);
  left.add(series[1]);
  right.add(series[2]);
  right.add(series[3]);
  left.merge(right);

  ASSERT_EQ(left.length(), reference.length());
  ASSERT_EQ(left.runs(), reference.runs());
  for (std::size_t i = 0; i < left.length(); ++i) {
    EXPECT_NEAR(left.at(i).mean(), reference.at(i).mean(), 1e-12);
    EXPECT_NEAR(left.at(i).variance(), reference.at(i).variance(), 1e-12);
  }
}

TEST(SeriesAccumulatorMergeTest, PaddedTailMatchesSerialPadding) {
  // The mapping harness pads a finished run's series with its final value;
  // merging accumulators of different lengths must agree with that.
  std::vector<double> long_run = {0.1, 0.4, 0.8, 0.9, 1.0};
  std::vector<double> short_run = {0.2, 0.7, 1.0};

  SeriesAccumulator reference;
  reference.add(long_run);
  std::vector<double> padded = short_run;
  padded.resize(long_run.size(), short_run.back());
  reference.add(padded);

  SeriesAccumulator merged, shorter;
  merged.add(long_run);
  shorter.add(short_run);
  merged.merge(shorter);

  ASSERT_EQ(merged.length(), reference.length());
  ASSERT_EQ(merged.runs(), reference.runs());
  for (std::size_t i = 0; i < merged.length(); ++i) {
    EXPECT_NEAR(merged.at(i).mean(), reference.at(i).mean(), 1e-12);
    EXPECT_NEAR(merged.at(i).variance(), reference.at(i).variance(), 1e-12);
    EXPECT_EQ(merged.at(i).min(), reference.at(i).min());
    EXPECT_EQ(merged.at(i).max(), reference.at(i).max());
  }

  // Symmetric case: the longer accumulator arrives second.
  SeriesAccumulator other;
  other.add(short_run);
  other.merge([&] {
    SeriesAccumulator longer;
    longer.add(long_run);
    return longer;
  }());
  ASSERT_EQ(other.length(), reference.length());
  for (std::size_t i = 0; i < other.length(); ++i)
    EXPECT_NEAR(other.at(i).mean(), reference.at(i).mean(), 1e-12);
}

TEST(SeriesAccumulatorMergeTest, MergeIntoEmptyCopies) {
  SeriesAccumulator filled;
  filled.add({1.0, 2.0});
  SeriesAccumulator empty;
  empty.merge(filled);
  ASSERT_EQ(empty.length(), 2u);
  EXPECT_EQ(empty.runs(), 1u);
  EXPECT_DOUBLE_EQ(empty.at(1).mean(), 2.0);
}

}  // namespace
}  // namespace agentnet

// The graceful-degradation harness (ROADMAP: robustness): sweep fault
// intensity over the mapping and routing tasks and assert the three
// contracts every chaos run must honour —
//
//   1. determinism: summaries are bit-identical at every AGENTNET_THREADS
//      (the fault subsystem must not break the parallel-replication
//      guarantee);
//   2. no wedging: no exception or abort at any intensity, including ones
//      far past realistic (the simulation degrades, it does not die);
//   3. graceful degradation: coverage / connectivity fall monotonically as
//      intensity rises, and intensity 0 reproduces the fault-free baseline
//      bit for bit.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/routing_experiments.hpp"
#include "fault/fault_plan.hpp"

namespace agentnet {
namespace {

GeneratedNetwork tiny_network() {
  TargetEdgeParams params;
  params.geometry.node_count = 40;
  params.target_edges = 220;
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

/// The swept plan: every injection class live at base rates, resilience
/// policies on whenever faults are. plan_at(0) is the inert plan by the
/// scaled() contract, so the sweep's zero point IS the baseline.
FaultPlan mapping_plan_at(double intensity) {
  FaultPlan base;
  base.agent_loss_probability = 0.004;
  base.node_crash_probability = 0.01;
  base.crash_persistence = 8;
  base.burst_drop_probability = 0.02;
  base.burst_persistence = 4;
  base.exchange_failure_probability = 0.05;
  FaultPlan plan = base.scaled(intensity);
  if (intensity > 0.0) {
    plan.watchdog_ttl = 80;
    plan.knowledge_ttl = 120;
  }
  return plan;
}

FaultPlan routing_plan_at(double intensity) {
  FaultPlan base;
  base.agent_loss_probability = 0.01;
  base.gateway_respawn_probability = 0.3;
  base.node_crash_probability = 0.02;
  base.crash_persistence = 6;
  base.burst_drop_probability = 0.03;
  base.burst_persistence = 3;
  base.exchange_failure_probability = 0.05;
  base.blackouts.push_back({{175.0, 175.0}, 60.0, 20, 15});
  FaultPlan plan = base.scaled(intensity);
  if (intensity > 0.0) plan.watchdog_ttl = 25;
  return plan;
}

MappingTaskConfig mapping_task_at(double intensity) {
  MappingTaskConfig task;
  task.population = 5;
  task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  task.max_steps = 2500;  // chaos runs may never finish; bound them
  task.faults = mapping_plan_at(intensity);
  return task;
}

RoutingTaskConfig routing_task_at(double intensity) {
  RoutingTaskConfig task;
  task.population = 15;
  task.steps = 60;
  task.measure_from = 30;
  task.faults = routing_plan_at(intensity);
  return task;
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

// --- Contract 1: thread-count invariance under faults -----------------

TEST(ChaosHarnessTest, MappingBitIdenticalAcrossThreadCountsAtAnyIntensity) {
  const auto net = tiny_network();
  for (double intensity : {0.0, 1.0, 4.0}) {
    SCOPED_TRACE(intensity);
    const auto task = mapping_task_at(intensity);
    const auto serial = run_mapping_experiment(net, task, 6, 42, 1);
    for (int threads : {2, 7}) {
      SCOPED_TRACE(threads);
      const auto parallel = run_mapping_experiment(net, task, 6, 42, threads);
      EXPECT_EQ(parallel.runs, serial.runs);
      EXPECT_EQ(parallel.unfinished, serial.unfinished);
      expect_identical(parallel.finishing_time, serial.finishing_time);
      expect_identical(parallel.knowledge, serial.knowledge);
    }
  }
}

TEST(ChaosHarnessTest, RoutingBitIdenticalAcrossThreadCountsAtAnyIntensity) {
  const auto scenario = tiny_scenario();
  for (double intensity : {0.0, 1.0, 4.0}) {
    SCOPED_TRACE(intensity);
    const auto task = routing_task_at(intensity);
    const auto serial = run_routing_experiment(scenario, task, 5, 70, 1);
    for (int threads : {2, 7}) {
      SCOPED_TRACE(threads);
      const auto parallel =
          run_routing_experiment(scenario, task, 5, 70, threads);
      EXPECT_EQ(parallel.runs, serial.runs);
      expect_identical(parallel.mean_connectivity, serial.mean_connectivity);
      expect_identical(parallel.window_stddev, serial.window_stddev);
      expect_identical(parallel.connectivity, serial.connectivity);
    }
  }
}

// --- Contract 2: the simulation degrades, it does not die -------------

TEST(ChaosHarnessTest, ExtremeIntensityNeverThrows) {
  const auto net = tiny_network();
  const auto scenario = tiny_scenario();
  for (double intensity : {8.0, 40.0}) {
    SCOPED_TRACE(intensity);
    MappingTaskConfig mapping = mapping_task_at(intensity);
    mapping.max_steps = 400;
    EXPECT_NO_THROW({
      World world = World::frozen(net);
      const auto result = run_mapping_task(world, mapping, Rng(11));
      EXPECT_FALSE(result.finished)
          << "a storm this violent cannot complete the map";
    });
    RoutingTaskConfig routing = routing_task_at(intensity);
    routing.traffic = true;
    EXPECT_NO_THROW({
      const auto result = run_routing_task(scenario, routing, Rng(11));
      EXPECT_EQ(result.connectivity.size(), routing.steps);
    });
  }
}

// --- Contract 3a: intensity 0 IS the baseline, bit for bit ------------

TEST(ChaosHarnessTest, ZeroIntensityReproducesTheBaselineExactly) {
  const auto net = tiny_network();
  MappingTaskConfig plain;
  plain.population = 5;
  plain.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  plain.max_steps = 2500;
  const auto base_map = run_mapping_experiment(net, plain, 4, 42, 1);
  const auto zero_map =
      run_mapping_experiment(net, mapping_task_at(0.0), 4, 42, 1);
  EXPECT_EQ(zero_map.unfinished, base_map.unfinished);
  expect_identical(zero_map.finishing_time, base_map.finishing_time);
  expect_identical(zero_map.knowledge, base_map.knowledge);

  const auto scenario = tiny_scenario();
  RoutingTaskConfig plain_route;
  plain_route.population = 15;
  plain_route.steps = 60;
  plain_route.measure_from = 30;
  const auto base_route =
      run_routing_experiment(scenario, plain_route, 4, 70, 1);
  const auto zero_route =
      run_routing_experiment(scenario, routing_task_at(0.0), 4, 70, 1);
  expect_identical(zero_route.mean_connectivity, base_route.mean_connectivity);
  expect_identical(zero_route.connectivity, base_route.connectivity);
}

// --- Contract 3b: monotone degradation --------------------------------

TEST(ChaosHarnessTest, MappingCoverageDegradesMonotonically) {
  const auto net = tiny_network();
  auto coverage_at = [&](double intensity) {
    const auto summary =
        run_mapping_experiment(net, mapping_task_at(intensity), 4, 42, 1);
    return summary.knowledge.mean().back();
  };
  const double calm = coverage_at(0.0);
  const double low = coverage_at(1.0);
  const double high = coverage_at(4.0);
  EXPECT_DOUBLE_EQ(calm, 1.0) << "fault-free teams finish the map";
  EXPECT_GE(calm, low);
  EXPECT_GE(low, high);
  EXPECT_GT(high, 0.0) << "even under heavy faults agents learn something";
}

TEST(ChaosHarnessTest, RoutingConnectivityDegradesMonotonically) {
  const auto scenario = tiny_scenario();
  auto connectivity_at = [&](double intensity) {
    const auto summary = run_routing_experiment(
        scenario, routing_task_at(intensity), 4, 70, 1);
    return summary.mean_connectivity.mean();
  };
  const double calm = connectivity_at(0.0);
  const double low = connectivity_at(1.0);
  const double high = connectivity_at(4.0);
  EXPECT_GE(calm, low);
  EXPECT_GE(low, high);
  EXPECT_GT(calm, high)
      << "a 4x storm must visibly hurt gateway connectivity";
}

TEST(ChaosHarnessTest, TrafficDeliveryDegradesUnderFaults) {
  const auto scenario = tiny_scenario();
  auto delivery_at = [&](double intensity) {
    RoutingTaskConfig task = routing_task_at(intensity);
    task.traffic = true;
    double delivered = 0.0;
    for (std::uint64_t s = 0; s < 3; ++s) {
      const auto result = run_routing_task(scenario, task, Rng(70 + s));
      delivered += result.traffic_stats->delivery_ratio();
    }
    return delivered / 3.0;
  };
  EXPECT_GE(delivery_at(0.0), delivery_at(4.0))
      << "packet delivery cannot improve when the network is on fire";
}

// --- Resilience policies visibly engage -------------------------------

TEST(ChaosHarnessTest, WatchdogKeepsFaultedTeamsAlive) {
  const auto net = tiny_network();
  MappingTaskConfig task = mapping_task_at(2.0);
  // A storm heavy enough (and a TTL short enough) that agents die and are
  // replaced well before any team could finish the map.
  task.faults.agent_loss_probability = 0.05;
  task.faults.watchdog_ttl = 25;
  task.max_steps = 1500;
  World world = World::frozen(net);
  const auto result = run_mapping_task(world, task, Rng(5));
  EXPECT_GT(result.agents_lost, 0u) << "the storm must actually bite";
  EXPECT_GT(result.agents_respawned, 0u) << "the watchdog must engage";
  EXPECT_GE(result.final_population, 1u)
      << "respawns keep the team from going extinct";

  MappingTaskConfig no_dog = task;
  no_dog.faults.watchdog_ttl = 0;
  World world2 = World::frozen(net);
  const auto undefended = run_mapping_task(world2, no_dog, Rng(5));
  EXPECT_EQ(undefended.agents_respawned, 0u);
  EXPECT_LE(undefended.final_population, result.final_population)
      << "without the watchdog, losses are permanent";
}

TEST(ChaosHarnessTest, RoutingWatchdogRespawnsAtLiveGateways) {
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task = routing_task_at(2.0);
  const auto result = run_routing_task(scenario, task, Rng(7));
  EXPECT_GT(result.agents_lost, 0u);
  EXPECT_GT(result.agents_respawned, 0u);
  EXPECT_GE(result.final_population, 1u);
}

}  // namespace
}  // namespace agentnet

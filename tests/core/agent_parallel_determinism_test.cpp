// Acceptance suite for the intra-run agent engine (ISSUE 10): for every
// task family — mapping, routing (+traffic), ACO, DV, flow traffic — and
// under the full chaos fault plan, AGENTNET_AGENT_THREADS must change
// wall-clock only. Results, counter totals (minus bookkeeping), the full
// trace event sequence and checkpoint payload bytes are compared exactly
// across threads {1, 2, 7}: the serial path, an even split and a worker
// count that does not divide the typical work size. threads = 1 must also
// keep the engine fully inert (zero parallel dispatches).
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "aco/ant_routing_task.hpp"
#include "adv/dv_agent.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_task.hpp"
#include "experiments/traffic_experiments.hpp"
#include "net/generators.hpp"
#include "net/topology.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"
#include "snapshot/snapshot.hpp"

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

/// Everything the plan can throw at a run at once: topology weather,
/// transit loss, corrupted exchanges and both resilience policies.
FaultPlan chaos_plan() {
  FaultPlan plan;
  plan.agent_loss_probability = 0.03;
  plan.gateway_respawn_probability = 0.1;
  plan.node_crash_probability = 0.03;
  plan.crash_persistence = 8;
  plan.burst_drop_probability = 0.02;
  plan.burst_persistence = 4;
  plan.exchange_failure_probability = 0.15;
  plan.watchdog_ttl = 25;
  plan.knowledge_ttl = 40;
  return plan;
}

/// Per-run telemetry captured alongside a task result. Bookkeeping
/// counters (checkpoint_*, agent_parallel_batches) are wall-clock-only by
/// contract and zeroed before comparison; `batches` keeps the raw value so
/// tests can assert the engine actually dispatched (or stayed inert).
struct Observed {
  obs::MetricsSnapshot counters{};
  std::vector<obs::TraceEvent> events;
  std::uint64_t batches = 0;
};

template <typename Fn>
auto observe(Observed& out, Fn&& fn) {
  obs::RunObs slot;
  slot.trace.enable();
  auto result = [&] {
    obs::ObsRunScope scope(slot);
    return fn();
  }();
  out.counters = obs::snapshot(slot.counters);
  out.batches = out.counters.value(obs::Counter::kAgentParallelBatches);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i)
    if (obs::is_bookkeeping_counter(static_cast<obs::Counter>(i)))
      out.counters.values[i] = 0;
  out.events = slot.trace.events();
  return result;
}

void expect_identical(const Observed& test, const Observed& reference) {
  for (std::size_t i = 0; i < obs::kCounterCount; ++i)
    EXPECT_EQ(test.counters.values[i], reference.counters.values[i])
        << "counter " << obs::counter_name(static_cast<obs::Counter>(i));
  ASSERT_EQ(test.events.size(), reference.events.size());
  for (std::size_t i = 0; i < test.events.size(); ++i)
    ASSERT_TRUE(test.events[i] == reference.events[i])
        << "trace diverges at event " << i;
}

const std::size_t kThreadSweep[] = {2, 7};

TEST(AgentParallelDeterminismTest, MappingBitIdenticalUnderChaos) {
  const auto net = tiny_network();
  const auto run_at = [&](std::size_t threads, Observed& obs_out) {
    MappingTaskConfig task;
    task.population = 6;
    task.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
    task.advance_world = true;  // topology weather needs a moving clock
    task.max_steps = 300;
    task.faults = chaos_plan();
    task.faults.gateway_respawn_probability = 0.0;  // mapping: no gateways
    task.agent_parallel.threads = threads;
    return observe(obs_out, [&] {
      World world = World::frozen(net);
      return run_mapping_task(world, task, Rng(11));
    });
  };
  Observed serial_obs;
  const auto serial = run_at(1, serial_obs);
  EXPECT_EQ(serial_obs.batches, 0u) << "threads=1 must not dispatch";
  for (const std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    Observed obs;
    const auto parallel = run_at(threads, obs);
    EXPECT_GT(obs.batches, 0u) << "engine never engaged";
    EXPECT_EQ(parallel.finished, serial.finished);
    EXPECT_EQ(parallel.finishing_time, serial.finishing_time);
    EXPECT_EQ(parallel.mean_knowledge, serial.mean_knowledge);
    EXPECT_EQ(parallel.min_knowledge, serial.min_knowledge);
    EXPECT_EQ(parallel.migration_bytes, serial.migration_bytes);
    EXPECT_EQ(parallel.agents_lost, serial.agents_lost);
    EXPECT_EQ(parallel.agents_respawned, serial.agents_respawned);
    EXPECT_EQ(parallel.final_population, serial.final_population);
    expect_identical(obs, serial_obs);
  }
}

void expect_identical(const RoutingTaskResult& test,
                      const RoutingTaskResult& reference) {
  EXPECT_EQ(test.connectivity, reference.connectivity);
  EXPECT_EQ(test.oracle, reference.oracle);
  EXPECT_EQ(test.mean_connectivity, reference.mean_connectivity);
  EXPECT_EQ(test.stddev_connectivity, reference.stddev_connectivity);
  EXPECT_EQ(test.migration_bytes, reference.migration_bytes);
  EXPECT_EQ(test.agents_lost, reference.agents_lost);
  EXPECT_EQ(test.agents_respawned, reference.agents_respawned);
  EXPECT_EQ(test.final_population, reference.final_population);
  EXPECT_EQ(test.traffic_stats, reference.traffic_stats);
}

RoutingTaskConfig routing_chaos_config(std::size_t threads,
                                       StigmergyMode stigmergy) {
  RoutingTaskConfig task;
  task.population = 15;
  task.agent.communicate = true;
  task.agent.stigmergy = stigmergy;
  task.steps = 60;
  task.measure_from = 30;
  task.record_oracle = true;
  task.traffic = true;
  task.faults = chaos_plan();
  task.agent_parallel.threads = threads;
  return task;
}

TEST(AgentParallelDeterminismTest, RoutingBitIdenticalUnderChaos) {
  const auto scenario = tiny_scenario();
  const auto run_at = [&](std::size_t threads, Observed& obs_out) {
    const auto task = routing_chaos_config(threads, StigmergyMode::kOff);
    return observe(obs_out,
                   [&] { return run_routing_task(scenario, task, Rng(23)); });
  };
  Observed serial_obs;
  const auto serial = run_at(1, serial_obs);
  EXPECT_EQ(serial_obs.batches, 0u);
  for (const std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    Observed obs;
    const auto parallel = run_at(threads, obs);
    EXPECT_GT(obs.batches, 0u);
    expect_identical(parallel, serial);
    expect_identical(obs, serial_obs);
  }
}

TEST(AgentParallelDeterminismTest, StigmergicRoutingStaysIdentical) {
  // Footprint-guided decide reads marks other agents wrote this step, so
  // the engine must fall back to the serial decide loop — and still match
  // the threads=1 run bit for bit.
  const auto scenario = tiny_scenario();
  const auto run_at = [&](std::size_t threads, Observed& obs_out) {
    const auto task =
        routing_chaos_config(threads, StigmergyMode::kFilterFirst);
    return observe(obs_out,
                   [&] { return run_routing_task(scenario, task, Rng(29)); });
  };
  Observed serial_obs;
  const auto serial = run_at(1, serial_obs);
  for (const std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    Observed obs;
    const auto parallel = run_at(threads, obs);
    EXPECT_GT(obs.batches, 0u);  // arrive/exchange/measure still fan out
    expect_identical(parallel, serial);
    expect_identical(obs, serial_obs);
  }
}

TEST(AgentParallelDeterminismTest, SharedTeamGathersUpkeepAboveTheGrain) {
  // A live routing world of 1,200 nodes: its 600 movers are on battery, so
  // every one of them is dirty every step, above the 512-row gather grain.
  // The run's one team then fans the world upkeep as well as the agent
  // phases, and the two kinds of job alternate on it every step.
  RoutingScenarioParams params;
  params.node_count = 1200;
  params.gateway_count = 58;
  params.bounds = {{0.0, 0.0}, {2190.0, 2190.0}};
  params.trace_steps = 30;
  const RoutingScenario scenario(params, 43);
  {
    obs::RunObs slot;
    obs::ObsRunScope scope(slot);
    World world = scenario.make_world();
    for (std::size_t t = 0; t < params.trace_steps; ++t) {
      const auto dirty = [&] {
        return obs::snapshot(slot.counters)
            .value(obs::Counter::kTopoNodesDirty);
      };
      const std::uint64_t before = dirty();
      world.advance();
      EXPECT_GT(dirty() - before, TopologyBuilder::kGatherGrain)
          << "step " << t << " stays below the gather grain";
    }
  }
  for (const bool traffic : {false, true}) {
    SCOPED_TRACE(traffic ? "traffic on" : "traffic off");
    const auto run_at = [&](std::size_t threads, Observed& obs_out) {
      RoutingTaskConfig task;
      task.population = 120;
      task.agent.communicate = true;
      task.steps = params.trace_steps;
      task.measure_from = 15;
      task.record_oracle = true;
      task.traffic = traffic;
      task.agent_parallel.threads = threads;
      return observe(obs_out,
                     [&] { return run_routing_task(scenario, task, Rng(47)); });
    };
    Observed serial_obs;
    const auto serial = run_at(1, serial_obs);
    EXPECT_EQ(serial_obs.batches, 0u);
    for (const std::size_t threads : kThreadSweep) {
      SCOPED_TRACE(threads);
      Observed obs;
      const auto parallel = run_at(threads, obs);
      EXPECT_GT(obs.batches, 0u);
      expect_identical(parallel, serial);
      expect_identical(obs, serial_obs);
    }
  }
}

TEST(AgentParallelDeterminismTest, AntRoutingBitIdenticalUnderChaos) {
  const auto scenario = tiny_scenario();
  const auto run_at = [&](std::size_t threads, Observed& obs_out) {
    AntRoutingTaskConfig task;
    task.steps = 60;
    task.measure_from = 30;
    task.faults = chaos_plan();
    task.faults.exchange_failure_probability = 0.0;  // ants never meet
    task.faults.watchdog_ttl = 0;
    task.faults.knowledge_ttl = 0;
    task.agent_parallel.threads = threads;
    return observe(obs_out, [&] {
      return run_ant_routing_task(scenario, task, Rng(31));
    });
  };
  Observed serial_obs;
  const auto serial = run_at(1, serial_obs);
  EXPECT_EQ(serial_obs.batches, 0u);
  for (const std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    Observed obs;
    const auto parallel = run_at(threads, obs);
    EXPECT_GT(obs.batches, 0u);
    EXPECT_EQ(parallel.connectivity, serial.connectivity);
    EXPECT_EQ(parallel.mean_connectivity, serial.mean_connectivity);
    EXPECT_EQ(parallel.stddev_connectivity, serial.stddev_connectivity);
    EXPECT_EQ(parallel.ant_hops, serial.ant_hops);
    EXPECT_EQ(parallel.control_bytes, serial.control_bytes);
    EXPECT_EQ(parallel.ants_launched, serial.ants_launched);
    EXPECT_EQ(parallel.ants_completed, serial.ants_completed);
    expect_identical(obs, serial_obs);
  }
}

TEST(AgentParallelDeterminismTest, DvRoutingBitIdenticalUnderChaos) {
  const auto scenario = tiny_scenario();
  const auto run_at = [&](std::size_t threads, Observed& obs_out) {
    DvRoutingTaskConfig task;
    task.population = 20;
    task.steps = 60;
    task.measure_from = 30;
    task.faults = chaos_plan();
    task.faults.gateway_respawn_probability = 0.0;  // DV: no respawn path
    task.faults.exchange_failure_probability = 0.0;
    task.faults.watchdog_ttl = 0;
    task.faults.knowledge_ttl = 0;
    task.agent_parallel.threads = threads;
    return observe(obs_out, [&] {
      return run_dv_routing_task(scenario, task, Rng(37));
    });
  };
  Observed serial_obs;
  const auto serial = run_at(1, serial_obs);
  EXPECT_EQ(serial_obs.batches, 0u);
  for (const std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    Observed obs;
    const auto parallel = run_at(threads, obs);
    EXPECT_GT(obs.batches, 0u);
    EXPECT_EQ(parallel.connectivity, serial.connectivity);
    EXPECT_EQ(parallel.mean_connectivity, serial.mean_connectivity);
    EXPECT_EQ(parallel.stddev_connectivity, serial.stddev_connectivity);
    EXPECT_EQ(parallel.migration_bytes, serial.migration_bytes);
    EXPECT_EQ(parallel.agents_lost, serial.agents_lost);
    EXPECT_EQ(parallel.final_population, serial.final_population);
    expect_identical(obs, serial_obs);
  }
}

TEST(AgentParallelDeterminismTest, FlowTrafficBitIdenticalUnderChaos) {
  const auto scenario = tiny_scenario();
  const auto run_at = [&](std::size_t threads, Observed& obs_out) {
    TrafficTaskConfig task;
    task.steps = 60;
    task.measure_from = 30;
    task.balance_gateways = true;
    task.workload.offered_load = 0.4;
    task.faults = chaos_plan();
    task.faults.gateway_respawn_probability = 0.0;
    task.faults.exchange_failure_probability = 0.0;
    task.faults.watchdog_ttl = 0;
    task.faults.knowledge_ttl = 0;
    task.agent_parallel.threads = threads;
    return observe(obs_out,
                   [&] { return run_traffic_task(scenario, task, Rng(41)); });
  };
  Observed serial_obs;
  const auto serial = run_at(1, serial_obs);
  EXPECT_EQ(serial_obs.batches, 0u);
  for (const std::size_t threads : kThreadSweep) {
    SCOPED_TRACE(threads);
    Observed obs;
    const auto parallel = run_at(threads, obs);
    EXPECT_GT(obs.batches, 0u);
    EXPECT_EQ(parallel.traffic.generated, serial.traffic.generated);
    EXPECT_EQ(parallel.traffic.delivered, serial.traffic.delivered);
    EXPECT_EQ(parallel.traffic.dropped(), serial.traffic.dropped());
    EXPECT_EQ(parallel.traffic.in_flight, serial.traffic.in_flight);
    EXPECT_EQ(parallel.traffic.latency_sum, serial.traffic.latency_sum);
    EXPECT_EQ(parallel.traffic.latency_histogram,
              serial.traffic.latency_histogram);
    EXPECT_EQ(parallel.mean_connectivity, serial.mean_connectivity);
    EXPECT_EQ(parallel.offered_load, serial.offered_load);
    EXPECT_EQ(parallel.carried_load, serial.carried_load);
    EXPECT_EQ(parallel.ants_launched, serial.ants_launched);
    EXPECT_EQ(parallel.ants_completed, serial.ants_completed);
    EXPECT_EQ(parallel.ant_hops, serial.ant_hops);
    expect_identical(obs, serial_obs);
  }
}

TEST(AgentParallelDeterminismTest, CheckpointBytesIdenticalAcrossThreads) {
  // The checkpoint payload serializes the entire evolving run state —
  // world clock, tables, agents, caches, telemetry. Byte-equal payloads at
  // every autosave step are the strongest single probe that the engine
  // never perturbed anything.
  const auto scenario = tiny_scenario();
  const auto checkpoint_at = [&](std::size_t threads,
                                 const std::string& path) {
    const snapshot::ExperimentIdentity identity{
        "routing", 1, 23, scenario.node_count(), 60};
    snapshot::ExperimentCheckpointer saver(identity, path, 20, "");
    auto task = routing_chaos_config(threads, StigmergyMode::kOff);
    snapshot::RunCheckpointPort port = saver.port(0);
    task.checkpoint = &port;
    obs::RunObs slot;
    slot.trace.enable();
    obs::ObsRunScope scope(slot);
    run_routing_task(scenario, task, Rng(23));
  };
  const std::string serial_path =
      ::testing::TempDir() + "/agent_par_serial.ck";
  const std::string parallel_path =
      ::testing::TempDir() + "/agent_par_parallel.ck";
  checkpoint_at(1, serial_path);
  checkpoint_at(2, parallel_path);
  const auto serial = snapshot::load_checkpoint(serial_path);
  const auto parallel = snapshot::load_checkpoint(parallel_path);
  ASSERT_EQ(serial.runs.size(), 1u);
  ASSERT_EQ(parallel.runs.size(), 1u);
  EXPECT_EQ(parallel.runs.at(0).step, serial.runs.at(0).step);
  EXPECT_TRUE(parallel.runs.at(0).payload == serial.runs.at(0).payload)
      << "checkpoint payload bytes diverge";
}

}  // namespace
}  // namespace agentnet

// Direct tests for failure injection in the routing task: loss and respawn
// through the FaultPlan, the fault counters, and determinism across thread
// counts.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "core/routing_task.hpp"
#include "experiments/routing_experiments.hpp"
#include "obs/obs.hpp"

namespace agentnet {
namespace {

RoutingScenario tiny_scenario() {
  RoutingScenarioParams params;
  params.node_count = 50;
  params.gateway_count = 4;
  params.bounds = {{0.0, 0.0}, {350.0, 350.0}};
  params.trace_steps = 60;
  return RoutingScenario(params, 17);
}

RoutingTaskConfig lossy_task() {
  RoutingTaskConfig task;
  task.population = 15;
  task.steps = 60;
  task.measure_from = 30;
  task.faults.agent_loss_probability = 0.05;
  task.faults.gateway_respawn_probability = 0.3;
  return task;
}

TEST(RoutingFaultTest, LossAndRespawnCountersIncrement) {
  const auto scenario = tiny_scenario();
  obs::RunObs slot;
  RoutingTaskResult result;
  {
    obs::ObsRunScope scope(slot);
    result = run_routing_task(scenario, lossy_task(), Rng(3));
  }
  EXPECT_GT(result.agents_lost, 0u);
  EXPECT_GT(result.agents_respawned, 0u);
  EXPECT_EQ(slot.counters.value(obs::Counter::kAgentsLost),
            result.agents_lost);
  EXPECT_EQ(slot.counters.value(obs::Counter::kAgentsRespawned),
            result.agents_respawned);
  EXPECT_GE(result.final_population, 1u);
}

TEST(RoutingFaultTest, LossWithoutRespawnShrinksThePopulation) {
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task = lossy_task();
  task.faults.gateway_respawn_probability = 0.0;
  const auto result = run_routing_task(scenario, task, Rng(3));
  EXPECT_GT(result.agents_lost, 0u);
  EXPECT_EQ(result.agents_respawned, 0u);
  EXPECT_EQ(result.final_population,
            static_cast<std::size_t>(task.population) - result.agents_lost);
}

TEST(RoutingFaultTest, RespawnedAgentsUseTheHomogeneousTemplate) {
  // A respawned agent inherits the roster template of the slot it refills.
  // With a homogeneous non-communicating population and respawns on, the
  // run must behave exactly like a homogeneous team — in particular no
  // stigmergy stamps can ever appear.
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task = lossy_task();
  task.agent.stigmergy = StigmergyMode::kOff;
  obs::RunObs slot;
  {
    obs::ObsRunScope scope(slot);
    const auto result = run_routing_task(scenario, task, Rng(5));
    EXPECT_GT(result.agents_respawned, 0u);
  }
  EXPECT_EQ(slot.counters.value(obs::Counter::kStigmergyStamps), 0u);
}

TEST(RoutingFaultTest, LossyRunsBitIdenticalAcrossThreadCounts) {
  const auto scenario = tiny_scenario();
  const auto serial = run_routing_experiment(scenario, lossy_task(), 5, 70, 1);
  for (int threads : {2, 7}) {
    SCOPED_TRACE(threads);
    const auto parallel =
        run_routing_experiment(scenario, lossy_task(), 5, 70, threads);
    ASSERT_EQ(parallel.mean_connectivity.count(),
              serial.mean_connectivity.count());
    EXPECT_EQ(parallel.mean_connectivity.mean(),
              serial.mean_connectivity.mean());
    EXPECT_EQ(parallel.mean_connectivity.variance(),
              serial.mean_connectivity.variance());
  }
}

TEST(RoutingFaultTest, RouteAgingClearsCrashedNextHops) {
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 15;
  task.steps = 60;
  task.measure_from = 30;
  task.faults.node_crash_probability = 0.08;
  task.faults.crash_persistence = 6;
  obs::RunObs with_aging_slot;
  {
    obs::ObsRunScope scope(with_aging_slot);
    run_routing_task(scenario, task, Rng(13));
  }
  EXPECT_GT(with_aging_slot.counters.value(obs::Counter::kRoutesAged), 0u);
  EXPECT_GT(with_aging_slot.counters.value(obs::Counter::kNodeCrashes), 0u);

  task.faults.age_crashed_routes = false;
  obs::RunObs without_slot;
  {
    obs::ObsRunScope scope(without_slot);
    run_routing_task(scenario, task, Rng(13));
  }
  EXPECT_EQ(without_slot.counters.value(obs::Counter::kRoutesAged), 0u);
}

TEST(RoutingFaultTest, ExchangeCorruptionCountsMeetings) {
  const auto scenario = tiny_scenario();
  RoutingTaskConfig task;
  task.population = 25;
  task.steps = 60;
  task.measure_from = 30;
  task.agent.communicate = true;
  task.faults.exchange_failure_probability = 0.5;
  obs::RunObs slot;
  {
    obs::ObsRunScope scope(slot);
    run_routing_task(scenario, task, Rng(21));
  }
  EXPECT_GT(slot.counters.value(obs::Counter::kExchangesCorrupted), 0u);
  EXPECT_GT(slot.counters.value(obs::Counter::kAgentMeetings), 0u);
}

}  // namespace
}  // namespace agentnet

// Runs the ant-colony baseline on the paper's routing scenario through the
// same task loop (core/task_loop.hpp) as run_routing_task, so bench extF
// can compare the two systems line for line.
#pragma once

#include "aco/ant_routing.hpp"
#include "core/routing_task.hpp"
#include "core/task_loop.hpp"

namespace agentnet {

/// Topology faults mask the graph the ants walk and the measurement sees;
/// the plan's agent_loss_probability maps onto ant loss unless `ants` sets
/// its own. The agent engine fans evaporation rows, the entropy gauge, the
/// snapshot argmax and the connectivity walks.
struct AntRoutingTaskConfig : RunContext {
  AntRoutingConfig ants{};
  std::size_t steps = 300;
  std::size_t measure_from = 150;
};

AntRoutingResult run_ant_routing_task(const RoutingScenario& scenario,
                                      const AntRoutingTaskConfig& config,
                                      Rng rng);

}  // namespace agentnet

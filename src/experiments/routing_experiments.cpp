#include "experiments/routing_experiments.hpp"

#include <optional>
#include <vector>

#include "experiments/replicate.hpp"

namespace agentnet {

RoutingSummary run_routing_experiment(const RoutingScenario& scenario,
                                      const RoutingTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads, const ObsConfig& obs,
                                      const FaultConfig& faults) {
  // Shared world script (docs/PERFORMANCE.md): the scenario's world is the
  // same in every run, so two or more runs record it once and all of them
  // replay it. A single run stays live.
  std::optional<ScenarioScript> script;
  const std::vector<RoutingTaskResult> results = replicate(
      {"routing", runs, run_seed_base, scenario.node_count(), task.steps,
       threads, obs, faults},
      task,
      [&](const RoutingTaskConfig& config, Rng rng) {
        return run_routing_task(scenario, config, rng);
      },
      [&](RoutingTaskConfig& effective) {
        effective.script = &script.emplace(scenario, effective.steps,
                                           effective.record_oracle);
      });

  // Combine in run-index order — the exact aggregation the serial loop
  // performed, so summaries are bit-identical at every thread count.
  RoutingSummary summary;
  summary.runs = runs;
  for (const auto& result : results) {
    summary.mean_connectivity.add(result.mean_connectivity);
    summary.window_stddev.add(result.stddev_connectivity);
    summary.connectivity.add(result.connectivity);
    if (!result.oracle.empty()) summary.oracle.add(result.oracle);
    if (result.traffic_stats) summary.traffic += *result.traffic_stats;
  }
  return summary;
}

}  // namespace agentnet

#include "experiments/routing_experiments.hpp"

#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "snapshot/snapshot.hpp"

namespace agentnet {

RoutingSummary run_routing_experiment(const RoutingScenario& scenario,
                                      const RoutingTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads, const ObsConfig& obs,
                                      const FaultConfig& faults) {
  AGENTNET_REQUIRE(runs >= 1, "need at least one run");
  AGENTNET_REQUIRE(threads >= 0, "threads must be >= 0");

  // Environment-driven chaos: a non-inert plan overrides the task's own.
  RoutingTaskConfig effective = task;
  if (!(faults == FaultPlan{})) effective.faults = faults;

  // One telemetry slot per run: each replication counts and traces into its
  // own shard, merged in run-index order below.
  std::vector<obs::RunObs> slots(static_cast<std::size_t>(runs));
  obs::enable_slots(slots, obs);

  // Fan the replications out: run r is a pure function of (scenario, task,
  // seed + r) and writes only its own slot (the scenario is immutable and
  // each task stamps out its own World).
  const auto checkpointer = snapshot::ExperimentCheckpointer::from_env(
      {"routing", static_cast<std::uint64_t>(runs), run_seed_base,
       scenario.node_count(), effective.steps});

  // Shared world script (docs/PERFORMANCE.md): the scenario's world is the
  // same in every run, so two or more runs record it once, as part of run
  // 0's setup, and all of them replay it. A single run stays live.
  std::optional<ScenarioScript> script;
  if (runs >= 2) {
    obs::ObsRunScope scope(slots[0]);
    obs::ScopedPhase setup(obs::Phase::kSetup);
    effective.script =
        &script.emplace(scenario, effective.steps, effective.record_oracle);
  }

  std::vector<RoutingTaskResult> results(static_cast<std::size_t>(runs));
  parallel_for_claimed(
      results.size(),
      [&](std::size_t r) {
        obs::ObsRunScope scope(slots[r]);
        RoutingTaskConfig run_config = effective;
        snapshot::RunCheckpointPort port;
        if (checkpointer) {
          port = checkpointer->port(r);
          run_config.checkpoint = &port;
        }
        results[r] = run_routing_task(
            scenario, run_config,
            Rng(run_seed_base + static_cast<std::uint64_t>(r)));
      },
      static_cast<std::size_t>(threads));

  obs::merge_and_write(slots, obs, run_seed_base, runs, threads);

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

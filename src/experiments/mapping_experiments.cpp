#include "experiments/mapping_experiments.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "sim/world.hpp"
#include "snapshot/snapshot.hpp"

namespace agentnet {

MappingSummary run_mapping_experiment(const GeneratedNetwork& network,
                                      const MappingTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads, const ObsConfig& obs,
                                      const FaultConfig& faults) {
  AGENTNET_REQUIRE(runs >= 1, "need at least one run");
  AGENTNET_REQUIRE(threads >= 0, "threads must be >= 0");

  // Environment-driven chaos: a non-inert plan overrides the task's own.
  MappingTaskConfig effective = task;
  if (!(faults == FaultPlan{})) effective.faults = faults;

  // One telemetry slot per run: each replication counts and traces into its
  // own shard, merged in run-index order below.
  std::vector<obs::RunObs> slots(static_cast<std::size_t>(runs));
  obs::enable_slots(slots, obs);

  // Fan the replications out: run r is a pure function of (task, seed + r)
  // and writes only its own slot, so execution order is irrelevant.
  const auto checkpointer = snapshot::ExperimentCheckpointer::from_env(
      {"mapping", static_cast<std::uint64_t>(runs), run_seed_base,
       network.graph.node_count(), effective.max_steps});

  std::vector<MappingTaskResult> results(static_cast<std::size_t>(runs));
  parallel_for_claimed(
      results.size(),
      [&](std::size_t r) {
        obs::ObsRunScope scope(slots[r]);
        World world = World::frozen(network);
        MappingTaskConfig run_config = effective;
        snapshot::RunCheckpointPort port;
        if (checkpointer) {
          port = checkpointer->port(r);
          run_config.checkpoint = &port;
        }
        results[r] = run_mapping_task(
            world, run_config,
            Rng(run_seed_base + static_cast<std::uint64_t>(r)));
      },
      static_cast<std::size_t>(threads));

  obs::merge_and_write(slots, obs, run_seed_base, runs, threads);

  // Combine in run-index order — the exact aggregation the serial loop
  // performed, so summaries are bit-identical at every thread count.
  MappingSummary summary;
  summary.runs = runs;
  std::vector<std::vector<double>> series;
  series.reserve(results.size());
  for (auto& result : results) {
    if (result.finished)
      summary.finishing_time.add(static_cast<double>(result.finishing_time));
    else
      ++summary.unfinished;
    if (task.record_series) series.push_back(std::move(result.mean_knowledge));
  }
  if (!series.empty()) {
    std::size_t max_len = 0;
    for (const auto& s : series) max_len = std::max(max_len, s.size());
    for (auto& s : series) {
      const double pad = s.empty() ? 0.0 : s.back();
      s.resize(max_len, pad);
      summary.knowledge.add(s);
    }
  }
  return summary;
}

std::vector<std::size_t> series_sample_points(std::size_t length,
                                              std::size_t max_points) {
  AGENTNET_REQUIRE(max_points >= 2, "need at least two sample points");
  std::vector<std::size_t> points;
  if (length == 0) return points;
  if (length <= max_points) {
    points.resize(length);
    for (std::size_t i = 0; i < length; ++i) points[i] = i;
    return points;
  }
  for (std::size_t k = 0; k < max_points; ++k) {
    const std::size_t idx =
        k * (length - 1) / (max_points - 1);
    if (points.empty() || points.back() != idx) points.push_back(idx);
  }
  return points;
}

}  // namespace agentnet

#include "experiments/mapping_experiments.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "experiments/replicate.hpp"
#include "sim/world.hpp"

namespace agentnet {

MappingSummary run_mapping_experiment(const GeneratedNetwork& network,
                                      const MappingTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads, const ObsConfig& obs,
                                      const FaultConfig& faults) {
  std::vector<MappingTaskResult> results = replicate(
      {"mapping", runs, run_seed_base, network.graph.node_count(),
       task.max_steps, threads, obs, faults},
      task, [&](const MappingTaskConfig& config, Rng rng) {
        World world = World::frozen(network);
        return run_mapping_task(world, config, rng);
      });

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

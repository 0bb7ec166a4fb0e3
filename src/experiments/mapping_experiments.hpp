// Mapping experiments: same network, `runs` independent agent placements
// (replicated by experiments/replicate.hpp), aggregated finishing time and
// knowledge curves (the paper's Figs. 1–6 protocol).
#pragma once

#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "core/mapping_task.hpp"
#include "fault/fault_plan.hpp"
#include "net/generators.hpp"
#include "obs/obs.hpp"

namespace agentnet {

struct MappingSummary {
  /// Finishing time over the runs that finished.
  RunningStats finishing_time;
  int runs = 0;
  int unfinished = 0;
  /// Per-step mean-over-agents knowledge fraction, aggregated across runs.
  /// Runs shorter than the longest are padded with their final value (a
  /// finished team's knowledge stays perfect).
  SeriesAccumulator knowledge;
};

/// `runs` replications through replicate() (experiments/replicate.hpp,
/// which documents the seeding, threading, telemetry, fault-override and
/// checkpoint contract), summarised in run-index order.
MappingSummary run_mapping_experiment(const GeneratedNetwork& network,
                                      const MappingTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads = 0,
                                      const ObsConfig& obs =
                                          ObsConfig::from_env(),
                                      const FaultConfig& faults =
                                          FaultConfig::from_env());

/// Decimates a per-step series to at most `max_points` evenly spaced
/// samples (always keeping the final step) for tabular figure output.
std::vector<std::size_t> series_sample_points(std::size_t length,
                                              std::size_t max_points);

}  // namespace agentnet

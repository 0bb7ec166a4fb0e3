// Dynamic-routing experiments: one scenario (same placement + movement
// script), `runs` independent agent placements (replicated by
// experiments/replicate.hpp), aggregated connectivity traces and
// converged-window means (the paper's Figs. 7–11 protocol).
#pragma once

#include <cstdint>

#include "common/stats.hpp"
#include "core/routing_task.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs.hpp"

namespace agentnet {

struct RoutingSummary {
  int runs = 0;
  /// Mean connectivity over the converged window, one sample per run.
  RunningStats mean_connectivity;
  /// Per-run stddev of connectivity inside the window (stability measure).
  RunningStats window_stddev;
  /// Per-step connectivity aggregated across runs.
  SeriesAccumulator connectivity;
  /// Per-step oracle upper bound (filled when the task records it; the
  /// oracle depends only on the movement script, so runs are identical).
  SeriesAccumulator oracle;
  /// Exact element-wise merge of every run's traffic stats, in run-index
  /// order (all zero unless the task injected traffic).
  FlowTrafficStats traffic;
};

/// `runs` replications through replicate() (experiments/replicate.hpp,
/// which documents the seeding, threading, telemetry, fault-override and
/// checkpoint contract), summarised in run-index order.
RoutingSummary run_routing_experiment(const RoutingScenario& scenario,
                                      const RoutingTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads = 0,
                                      const ObsConfig& obs =
                                          ObsConfig::from_env(),
                                      const FaultConfig& faults =
                                          FaultConfig::from_env());

}  // namespace agentnet

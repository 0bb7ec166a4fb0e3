// Multi-run harness for dynamic-routing experiments: one scenario (same
// placement + movement script), `runs` independent agent placements,
// aggregated connectivity traces and converged-window means (the paper's
// Figs. 7–11 protocol).
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

/// Runs `runs` independent replications (run r is seeded run_seed_base + r)
/// and aggregates them. Replications execute on a worker pool — `threads`
/// 0 means AGENTNET_THREADS / hardware_concurrency, 1 the exact serial
/// loop — but are always combined in run-index order, so the summary is
/// bit-identical at every thread count. Each run gets its own telemetry
/// slot (counters, phase timings, optional trace buffer), merged in run
/// order into `obs.sink` (or the caller's current slot); with a trace path
/// set the per-run event streams are appended to it (docs/OBSERVABILITY.md).
/// A non-inert `faults` plan overrides `task.faults` for every run — the
/// AGENTNET_FAULT_* environment drives chaos sweeps over unmodified benches
/// exactly like AGENTNET_TRACE drives tracing (docs/ROBUSTNESS.md).
RoutingSummary run_routing_experiment(const RoutingScenario& scenario,
                                      const RoutingTaskConfig& task,
                                      int runs, std::uint64_t run_seed_base,
                                      int threads = 0,
                                      const ObsConfig& obs =
                                          ObsConfig::from_env(),
                                      const FaultConfig& faults =
                                          FaultConfig::from_env());

}  // namespace agentnet

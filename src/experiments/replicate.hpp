// The replication harness: the paper's averaging protocol (every setting
// is the mean of independent runs, 40 at the paper's protocol) in one
// place. Every multi-run caller — the three run_*_experiment summaries,
// the CLI's ant-colony and DV scenarios and the extension benches — seeds,
// checkpoints, fans out, traces and merges its runs through replicate().
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "experiments/paper.hpp"
#include "fault/fault_plan.hpp"
#include "obs/obs.hpp"
#include "snapshot/snapshot.hpp"

namespace agentnet {

/// One replicated experiment. The first five fields are its checkpoint
/// identity (snapshot::ExperimentIdentity): a checkpoint written under one
/// identity resumes only into the same one.
struct Replication {
  /// Task family: "mapping" | "routing" | "traffic" | "aco" | "dv".
  const char* kind = "";
  int runs = 1;
  std::uint64_t run_seed_base = paper::kRunSeedBase;
  std::size_t node_count = 0;
  /// The task's step budget (steps / max_steps).
  std::size_t steps = 0;
  /// 0 = AGENTNET_THREADS / hardware_concurrency; 1 = the exact serial loop.
  int threads = 0;
  ObsConfig obs = ObsConfig::from_env();
  /// A non-inert plan overrides the task's own `faults` for every run.
  FaultConfig faults = FaultConfig::from_env();
};

/// Runs `rep.runs` independent replications of `task` and returns their
/// results in run-index order. Run r is `run_one(config, Rng(seed + r))`,
/// a pure function of (task, seed + r) that must only read shared state.
///
/// - Threads: runs are claimed by `rep.threads` workers
///   (parallel_for_claimed) but returned in run-index order, so whatever
///   the caller folds them into is bit-identical at every thread count.
///   The lowest failing run's exception propagates.
/// - Faults: a non-inert `rep.faults` replaces `task.faults`, so the
///   AGENTNET_FAULT_* environment drives chaos sweeps over unmodified
///   callers exactly like AGENTNET_TRACE drives tracing
///   (docs/ROBUSTNESS.md).
/// - Telemetry: each run counts, times and traces into its own slot; the
///   slots merge in run order into `rep.obs.sink` (or the caller's current
///   slot) and the trace, metrics and manifest files configured in
///   `rep.obs` are written (docs/OBSERVABILITY.md).
/// - Checkpoints: AGENTNET_CHECKPOINT / AGENTNET_RESUME give every run
///   its own port into one experiment file (snapshot/snapshot.hpp).
/// - Shared setup: `share(effective)`, when given, builds state every run
///   reads (the routing tasks' recorded world script) into the effective
///   task. It runs once before the fan-out, only when two or more runs
///   would share it, charged to run 0's slot under Phase::kSetup.
template <typename Task, typename RunOne, typename Share = std::nullptr_t>
auto replicate(const Replication& rep, const Task& task, RunOne&& run_one,
               Share&& share = nullptr)
    -> std::vector<std::invoke_result_t<RunOne&, const Task&, Rng>> {
  AGENTNET_REQUIRE(rep.runs >= 1, "need at least one run");
  AGENTNET_REQUIRE(rep.threads >= 0, "threads must be >= 0");
  const auto runs = static_cast<std::size_t>(rep.runs);

  Task effective = task;
  if (!(rep.faults == FaultPlan{})) effective.faults = rep.faults;

  std::vector<obs::RunObs> slots(runs);
  obs::enable_slots(slots, rep.obs);
  const auto checkpointer = snapshot::ExperimentCheckpointer::from_env(
      {rep.kind, runs, rep.run_seed_base, rep.node_count, rep.steps});

  if constexpr (!std::is_null_pointer_v<std::decay_t<Share>>) {
    if (runs >= 2) {
      obs::ObsRunScope scope(slots[0]);
      obs::ScopedPhase setup(obs::Phase::kSetup);
      share(effective);
    }
  }

  std::vector<std::invoke_result_t<RunOne&, const Task&, Rng>> results(runs);
  parallel_for_claimed(
      runs,
      [&](std::size_t r) {
        obs::ObsRunScope scope(slots[r]);
        Task run_config = effective;
        snapshot::RunCheckpointPort port;
        if (checkpointer) {
          port = checkpointer->port(r);
          run_config.checkpoint = &port;
        }
        results[r] = run_one(run_config, Rng(rep.run_seed_base + r));
      },
      static_cast<std::size_t>(rep.threads));

  obs::merge_and_write(slots, rep.obs, rep.run_seed_base, rep.runs,
                       rep.threads);
  return results;
}

}  // namespace agentnet

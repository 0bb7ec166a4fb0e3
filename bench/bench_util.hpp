// Shared plumbing for the figure-reproduction binaries.
//
// Each bench regenerates one table/figure of the paper (see DESIGN.md §3 and
// EXPERIMENTS.md). Defaults favour quick runs; set AGENTNET_RUNS=40 for the
// paper's averaging protocol and AGENTNET_FULL=1 for full-scale sweeps.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/paper.hpp"
#include "experiments/replicate.hpp"
#include "experiments/routing_experiments.hpp"
#include "obs/obs.hpp"

namespace agentnet::bench {

/// Writes the process-cumulative phase timing table (and any non-zero
/// counters) as `#`-prefixed comment lines. Used for the CSV footer and the
/// stderr report — out-of-band in both places, so stdout result tables stay
/// byte-stable and diffable whether or not telemetry is compiled in.
inline void write_obs_report(std::ostream& os) {
#if AGENTNET_OBS_LEVEL >= 1
  os << "# threads," << default_threads() << "\n";
  const obs::PhaseSnapshot phases = obs::snapshot(obs::current_obs().phases);
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto phase = static_cast<obs::Phase>(i);
    const auto entry = phases.at(phase);
    if (entry.calls == 0) continue;
    char line[160];
    std::snprintf(line, sizeof(line), "# phase,%s,%llu,%.3f\n",
                  obs::phase_name(phase),
                  static_cast<unsigned long long>(entry.calls),
                  static_cast<double>(entry.ns) / 1e6);
    os << line;
  }
  const obs::MetricsSnapshot counters =
      obs::snapshot(obs::current_obs().counters);
  for (std::size_t i = 0; i < obs::kCounterCount; ++i) {
    const auto counter = static_cast<obs::Counter>(i);
    // Bookkeeping counters track harness activity (checkpoint autosaves,
    // agent-engine dispatches), so they would make this footer depend on
    // AGENTNET_AGENT_THREADS / AGENTNET_CHECKPOINT instead of the run.
    if (obs::is_bookkeeping_counter(counter)) continue;
    if (counters.values[i] == 0) continue;
    os << "# counter," << obs::counter_name(counter) << ","
       << counters.values[i] << "\n";
  }
#else
  (void)os;
#endif
}

inline void print_header(const std::string& figure,
                         const std::string& paper_result, int runs) {
  std::cout << "=== " << figure << " ===\n"
            << "paper: " << paper_result << "\n"
            << "runs per setting: " << runs
            << " (set AGENTNET_RUNS=40 for the paper protocol)\n"
            << "threads: " << default_threads()
            << " (AGENTNET_THREADS; results identical at any setting)\n\n";
}

/// The paper's mapping network (300 nodes / ≈2164 bidirectional links,
/// ≈4328 directed arcs), built once per process.
inline const GeneratedNetwork& mapping_network() {
  static const GeneratedNetwork net =
      paper_mapping_network(paper::kMappingNetworkSeed);
  return net;
}

/// The paper's routing scenario (250 nodes / 12 gateways / half mobile),
/// built once per process.
inline const RoutingScenario& routing_scenario() {
  static const RoutingScenario scenario{RoutingScenarioParams{},
                                        paper::kRoutingScenarioSeed};
  return scenario;
}

inline RoutingTaskConfig paper_routing_task() {
  RoutingTaskConfig task;
  task.steps = paper::kRoutingSteps;
  task.measure_from = paper::kRoutingMeasureFrom;
  return task;
}

/// Per-run results of `runs` mapping replications through the harness
/// (experiments/replicate.hpp), each on its own `make_world()`.
template <typename MakeWorld>
std::vector<MappingTaskResult> mapping_runs(const MappingTaskConfig& task,
                                            int runs, std::size_t node_count,
                                            const MakeWorld& make_world) {
  return replicate({"mapping", runs, paper::kRunSeedBase, node_count,
                    task.max_steps},
                   task, [&](const MappingTaskConfig& config, Rng rng) {
                     World world = make_world();
                     return run_mapping_task(world, config, rng);
                   });
}

/// Per-run results of `runs` replications of a routing-family task (`kind`
/// "routing" | "aco" | "dv") on the paper scenario through the harness.
template <typename Task, typename RunTask>
auto scenario_runs(const char* kind, const Task& task, int runs,
                   RunTask run_task) {
  const RoutingScenario& scenario = routing_scenario();
  return replicate({kind, runs, paper::kRunSeedBase, scenario.node_count(),
                    task.steps},
                   task, [&](const Task& config, Rng rng) {
                     return run_task(scenario, config, rng);
                   });
}

/// Prints a result table and, when AGENTNET_CSV_DIR is set, also writes it
/// to <dir>/<figure_id>.csv for external plotting. The directory is created
/// if missing; an unwritable destination is an error, not a silent skip.
inline void finish_table(const std::string& figure_id, const Table& table) {
  table.print(std::cout);
  if (const auto dir = knob_string(Knob::kCsvDir)) {
    std::error_code ec;
    std::filesystem::create_directories(*dir, ec);
    if (ec)
      throw ConfigError("cannot create AGENTNET_CSV_DIR " + *dir + ": " +
                        ec.message());
    const std::string path = *dir + "/" + figure_id + ".csv";
    std::ofstream os(path);
    if (!os.is_open()) throw ConfigError("cannot write " + path);
    table.write_csv(os);
    // Footer: resolved thread count plus phase timings / counters
    // accumulated so far in this process, as CSV comment lines.
    write_obs_report(os);
    std::cout << "(csv written to " << path << ")\n";
  }
  // The same report goes to stderr so interactive runs see it without
  // perturbing the diffable stdout tables.
  write_obs_report(std::cerr);
}

/// Prints a knowledge-over-time series as a table of ≤ max_points rows.
inline void print_series(const std::string& label,
                         const SeriesAccumulator& acc,
                         std::size_t max_points = 25) {
  Table table({"step", label + " mean", "stddev"});
  for (std::size_t idx : series_sample_points(acc.length(), max_points)) {
    table.add_row({static_cast<std::int64_t>(idx), acc.at(idx).mean(),
                   acc.at(idx).stddev()});
  }
  table.print(std::cout);
  std::cout << "\n";
}

/// `finishing.mean()`, or NaN when no run finished: under a fault plan
/// every run of a setting can be cut off at its step budget, and the
/// tables and ratios then read nan for it.
inline double finish_mean(const RunningStats& finishing) {
  return finishing.empty() ? std::numeric_limits<double>::quiet_NaN()
                           : finishing.mean();
}
inline double finish_mean(const MappingSummary& summary) {
  return finish_mean(summary.finishing_time);
}

/// One-line summary of a mapping experiment.
inline void print_finish(const std::string& label,
                         const MappingSummary& summary) {
  if (summary.finishing_time.empty()) {
    std::printf("%-42s finishing time: no run finished (%d/%d unfinished)\n",
                label.c_str(), summary.unfinished, summary.runs);
    return;
  }
  std::printf("%-42s finishing time: mean %8.1f  (±%.1f, min %.0f, max %.0f",
              label.c_str(), summary.finishing_time.mean(),
              confidence_halfwidth(summary.finishing_time),
              summary.finishing_time.min(), summary.finishing_time.max());
  if (summary.unfinished > 0)
    std::printf(", %d/%d unfinished", summary.unfinished, summary.runs);
  std::printf(")\n");
}

}  // namespace agentnet::bench

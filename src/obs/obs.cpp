#include "obs/obs.hpp"

#include <iomanip>
#include <ostream>
#include <vector>

#include "common/env.hpp"
#include "common/error.hpp"

namespace agentnet::obs {

ObsConfig ObsConfig::from_env() {
  check_environment();
  ObsConfig config;
#if AGENTNET_OBS_LEVEL >= 1
  if (auto path = knob_string(Knob::kTrace)) {
    config.trace_path = std::move(*path);
    if (auto format = knob_string(Knob::kTraceFormat)) {
      if (*format == "jsonl")
        config.trace_format = TraceFormat::kJsonl;
      else if (*format == "chrome")
        config.trace_format = TraceFormat::kChrome;
      else
        throw ConfigError("AGENTNET_TRACE_FORMAT must be jsonl or chrome, got " +
                          *format);
    }
  }
  if (auto path = knob_string(Knob::kMetrics)) {
    config.metrics_path = std::move(*path);
    config.metrics_every =
        static_cast<std::uint64_t>(knob_int(Knob::kMetricsEvery, 1));
  }
  if (auto path = knob_string(Knob::kManifest))
    config.manifest_path = std::move(*path);
#endif
  return config;
}

void enable_slots(std::span<RunObs> slots, const ObsConfig& config) {
  for (RunObs& slot : slots) {
    if (config.trace_path) slot.trace.enable();
    if (config.metrics_path) slot.metrics.enable(config.metrics_every);
  }
}

void merge_and_write(std::span<RunObs> slots, const ObsConfig& config,
                     std::uint64_t run_seed_base, int runs, int threads) {
  RunObs& dest = config.sink ? *config.sink : current_obs();
  {
    ObsRunScope merge_scope(dest);
    AGENTNET_OBS_PHASE(kMerge);
    for (const RunObs& slot : slots) merge_into(dest, slot);
    if (config.trace_path) {
      std::vector<const TraceBuffer*> traces;
      traces.reserve(slots.size());
      for (const RunObs& slot : slots) traces.push_back(&slot.trace);
      write_trace(*config.trace_path, config.trace_format, traces);
    }
    if (config.metrics_path) {
      std::vector<const MetricsBuffer*> buffers;
      buffers.reserve(slots.size());
      for (const RunObs& slot : slots) buffers.push_back(&slot.metrics);
      write_metrics(*config.metrics_path, buffers);
    }
  }
  if (config.manifest_path) {
    RunManifest manifest = make_manifest(run_seed_base, runs, threads);
    manifest.metrics_every = config.metrics_every;
    if (config.trace_path) manifest.trace_path = *config.trace_path;
    if (config.metrics_path) manifest.metrics_path = *config.metrics_path;
    write_manifest(*config.manifest_path, manifest);
  }
}

void write_run_footer(std::ostream& os, const RunObs& obs,
                      const ObsConfig& config) {
  write_counter_footer(os, obs.counters);
  const PhaseSnapshot phases = snapshot(obs.phases);
  const auto flags = os.flags();
  const auto precision = os.precision();
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const PhaseSnapshot::Entry& entry = phases.entries[i];
    if (entry.calls == 0 && entry.ns == 0) continue;
    os << "# phase_" << phase_name(static_cast<Phase>(i)) << "_ms="
       << std::fixed << std::setprecision(3)
       << static_cast<double>(entry.ns) / 1e6 << '\n';
  }
  os.flags(flags);
  os.precision(precision);
  if (config.trace_path) os << "# trace_path=" << *config.trace_path << '\n';
  if (config.metrics_path)
    os << "# metrics_path=" << *config.metrics_path << '\n';
  if (config.manifest_path)
    os << "# manifest_path=" << *config.manifest_path << '\n';
}

}  // namespace agentnet::obs

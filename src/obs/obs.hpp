// Umbrella header for the telemetry subsystem: include this one from
// instrumented code and use the AGENTNET_COUNT / AGENTNET_OBS_PHASE /
// AGENTNET_OBS_EVENT macros. At AGENTNET_OBS_LEVEL 0 every macro expands
// to nothing and the instrumentation costs zero instructions; at the
// default level 1 a counter bump is one relaxed atomic increment on a
// thread-private slot.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>

#include "obs/manifest.hpp"
#include "obs/metrics.hpp"
#include "obs/obs_level.hpp"
#include "obs/phase.hpp"
#include "obs/scope.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace agentnet::obs {

/// Observability knobs an experiment harness honours for one experiment.
struct ObsConfig {
  /// When set, every run's trace buffer is enabled and the streams are
  /// appended to this path after the runs complete.
  std::optional<std::string> trace_path;
  TraceFormat trace_format = TraceFormat::kJsonl;
  /// When set, every run's metrics buffer is enabled and the time-series
  /// JSONL is appended to this path after the runs complete.
  std::optional<std::string> metrics_path;
  /// Decimation: sample steps ≡ 0 (mod metrics_every); must be >= 1.
  std::uint64_t metrics_every = 1;
  /// When set, a run manifest (seed, env snapshot, build type, obs level,
  /// thread count) is written to this path after the runs complete.
  std::optional<std::string> manifest_path;
  /// Where merged counters/phases land; nullptr = the caller's current
  /// slot (usually the ambient one).
  RunObs* sink = nullptr;

  /// Reads the AGENTNET_TRACE, _TRACE_FORMAT, _METRICS, _METRICS_EVERY
  /// and _MANIFEST knobs. At AGENTNET_OBS_LEVEL 0 everything stays off
  /// regardless of the environment.
  static ObsConfig from_env();
};

/// Enables per-run trace/metrics buffers on `slots` per `config` — the
/// step every experiment harness runs before dispatching replications.
void enable_slots(std::span<RunObs> slots, const ObsConfig& config);

/// The harness epilogue: merges `slots` into the configured sink in
/// run-index order (bit-identical at every thread count), then writes the
/// trace stream, the metrics stream and the run manifest when their paths
/// are configured.
void merge_and_write(std::span<RunObs> slots, const ObsConfig& config,
                     std::uint64_t run_seed_base, int runs, int threads);

/// CSV-footer epilogue for the CLI: counter totals (write_counter_footer),
/// per-phase wall-clock rows (`# phase_<name>_ms=`), and the telemetry
/// artefact paths configured in `config`.
void write_run_footer(std::ostream& os, const RunObs& obs,
                      const ObsConfig& config);

}  // namespace agentnet::obs

namespace agentnet {
using obs::ObsConfig;
}  // namespace agentnet

#if AGENTNET_OBS_LEVEL >= 1

#define AGENTNET_COUNT(counter) \
  ::agentnet::obs::count(::agentnet::obs::Counter::counter)
#define AGENTNET_COUNT_N(counter, n) \
  ::agentnet::obs::count(::agentnet::obs::Counter::counter, (n))

#define AGENTNET_OBS_CONCAT_IMPL(a, b) a##b
#define AGENTNET_OBS_CONCAT(a, b) AGENTNET_OBS_CONCAT_IMPL(a, b)

/// Times the enclosing scope and charges it to `phase` (a Phase enumerator
/// name, e.g. AGENTNET_OBS_PHASE(kSense)). Use a named ScopedPhase when an
/// explicit early stop() is needed.
#define AGENTNET_OBS_PHASE(phase)                              \
  ::agentnet::obs::ScopedPhase AGENTNET_OBS_CONCAT(            \
      agentnet_obs_phase_, __LINE__)(::agentnet::obs::Phase::phase)

/// Emits a trace event when the current run is being traced:
/// AGENTNET_OBS_EVENT(kind, step[, agent[, a[, b]]]).
#define AGENTNET_OBS_EVENT(kind, ...) \
  ::agentnet::obs::emit(::agentnet::obs::TraceEventKind::kind, __VA_ARGS__)

/// True when the current run samples metrics at `step` — guard gauge
/// computations the simulation does not already pay for. Constant false
/// at AGENTNET_OBS_LEVEL 0, so guarded blocks dead-strip.
#define AGENTNET_OBS_METRICS_WANT(step) ::agentnet::obs::metrics_want(step)

/// Records one gauge sample: AGENTNET_OBS_GAUGE(kConnectivity, t, value).
/// Self-guarding (no-op when the step is not sampled).
#define AGENTNET_OBS_GAUGE(gauge, step, value) \
  ::agentnet::obs::gauge_sample(::agentnet::obs::Gauge::gauge, (step), (value))

/// Closes the metrics row for `step` with the counter deltas since the
/// previous tick. Call once as the last statement of each step loop body.
#define AGENTNET_OBS_METRICS_TICK(step) ::agentnet::obs::metrics_tick(step)

/// Snapshots the windowed latency percentiles from an integer histogram:
/// AGENTNET_OBS_LATENCY_WINDOW(t, stats.latency_histogram).
#define AGENTNET_OBS_LATENCY_WINDOW(step, histogram) \
  ::agentnet::obs::latency_window((step), (histogram))

#else  // AGENTNET_OBS_LEVEL == 0

#define AGENTNET_COUNT(counter) ((void)0)
#define AGENTNET_COUNT_N(counter, n) ((void)0)
#define AGENTNET_OBS_PHASE(phase) ((void)0)
#define AGENTNET_OBS_EVENT(kind, ...) ((void)0)
#define AGENTNET_OBS_METRICS_WANT(step) false
#define AGENTNET_OBS_GAUGE(gauge, step, value) ((void)0)
#define AGENTNET_OBS_METRICS_TICK(step) ((void)0)
#define AGENTNET_OBS_LATENCY_WINDOW(step, histogram) ((void)0)

#endif

// The one table of AGENTNET_* environment knobs (docs/REPRODUCING.md §2).
//
// A read names its row (knob_int(Knob::kRuns, 10)), so an unregistered name
// fails to compile, and the row's range is checked by the value grammar of
// the key=value options (common/options.hpp). A configuration snapshot (the
// *::from_env functions, bench_runs, bench_full) first calls
// check_environment(), so a misspelt AGENTNET_* name fails loudly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

namespace agentnet {

/// Names the rows of kKnobs, in order.
enum class Knob : std::uint8_t {
  kRuns, kFull, kThreads, kAgentThreads, kCsvDir,
  kTrace, kTraceFormat, kMetrics, kMetricsEvery, kManifest,
  kCheckpoint, kCheckpointEvery, kResume, kTopoRangeQuantum,
  kFaultAgentLoss, kFaultRespawn, kFaultNodeCrash, kFaultCrashPersistence,
  kFaultBurstDrop, kFaultBurstPersistence, kFaultExchange, kFaultBlackouts,
  kFaultSeed, kFaultWatchdogTtl, kFaultKnowledgeTtl, kFaultRouteAging,
  kCount
};

/// kInt, kDouble and kBool values go through the shared value grammar;
/// kString and kPath values are taken verbatim.
enum class KnobKind : std::uint8_t { kInt, kDouble, kBool, kString, kPath };

/// One row. An int or double value outside [min, max] is rejected.
struct KnobSpec {
  std::string_view name;
  KnobKind kind;
  std::string_view doc;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

inline constexpr std::int64_t kKnobNoMax =
    std::numeric_limits<std::int64_t>::max();

inline constexpr KnobSpec kKnobs[] = {
    {"AGENTNET_RUNS", KnobKind::kInt,
     "replications per setting (the paper protocol is 40)", 1, 10000},
    {"AGENTNET_FULL", KnobKind::kBool,
     "full paper-scale sweeps instead of the quick subsets"},
    {"AGENTNET_THREADS", KnobKind::kInt,
     "workers of the run fan-out and cold topology build (0 = all)", 0, 1024},
    {"AGENTNET_AGENT_THREADS", KnobKind::kInt,
     "threads of each run's team (0 = all, 1 = the serial path)", 0, 1024},
    {"AGENTNET_CSV_DIR", KnobKind::kPath,
     "directory that also receives every result table as CSV"},
    {"AGENTNET_TRACE", KnobKind::kPath, "per-run event trace path"},
    {"AGENTNET_TRACE_FORMAT", KnobKind::kString,
     "trace format: jsonl or chrome"},
    {"AGENTNET_METRICS", KnobKind::kPath, "per-step time-series metrics path"},
    {"AGENTNET_METRICS_EVERY", KnobKind::kInt,
     "metrics sampling period in steps", 1, kKnobNoMax},
    {"AGENTNET_MANIFEST", KnobKind::kPath, "run manifest path"},
    {"AGENTNET_CHECKPOINT", KnobKind::kPath, "checkpoint autosave path"},
    {"AGENTNET_CHECKPOINT_EVERY", KnobKind::kInt,
     "checkpoint autosave period in steps", 1, kKnobNoMax},
    {"AGENTNET_RESUME", KnobKind::kPath,
     "checkpoint to restore before the runs start"},
    {"AGENTNET_TOPO_RANGE_QUANTUM", KnobKind::kDouble,
     "quantum of battery-scaled radio ranges (0 = exact)", 0, kKnobNoMax},
    {"AGENTNET_FAULT_AGENT_LOSS", KnobKind::kDouble,
     "per-migration agent loss probability", 0, 1},
    {"AGENTNET_FAULT_RESPAWN", KnobKind::kDouble,
     "per-step gateway respawn probability of a lost agent", 0, 1},
    {"AGENTNET_FAULT_NODE_CRASH", KnobKind::kDouble,
     "per-window node crash probability (below 1)", 0, 1},
    {"AGENTNET_FAULT_CRASH_PERSISTENCE", KnobKind::kInt,
     "node crash window length in steps", 1, kKnobNoMax},
    {"AGENTNET_FAULT_BURST_DROP", KnobKind::kDouble,
     "per-window link burst outage probability (below 1)", 0, 1},
    {"AGENTNET_FAULT_BURST_PERSISTENCE", KnobKind::kInt,
     "burst outage window length in steps", 1, kKnobNoMax},
    {"AGENTNET_FAULT_EXCHANGE", KnobKind::kDouble,
     "per-meeting corrupted exchange probability", 0, 1},
    {"AGENTNET_FAULT_BLACKOUTS", KnobKind::kString,
     "blackout zones, x:y:radius:start:duration joined by ;"},
    {"AGENTNET_FAULT_SEED", KnobKind::kInt,
     "seed of the crash, burst and blackout weather", 0, kKnobNoMax},
    {"AGENTNET_FAULT_WATCHDOG_TTL", KnobKind::kInt,
     "steps unseen before an agent is respawned (0 = off)", 0, kKnobNoMax},
    {"AGENTNET_FAULT_KNOWLEDGE_TTL", KnobKind::kInt,
     "steps before hearsay map knowledge expires (0 = off)", 0, kKnobNoMax},
    {"AGENTNET_FAULT_ROUTE_AGING", KnobKind::kBool,
     "age routes through crashed nodes out of the tables"},
};
static_assert(std::size(kKnobs) == static_cast<std::size_t>(Knob::kCount),
              "kKnobs must have one row per Knob enumerator");

constexpr const KnobSpec& knob_spec(Knob knob) {
  return kKnobs[static_cast<std::size_t>(knob)];
}

/// A string or path knob; nullopt when the variable is unset or empty.
std::optional<std::string> knob_string(Knob knob);

/// Number and bool knobs: `fallback` when unset or empty; throws ConfigError
/// naming the variable when the value is malformed or out of the row's range.
std::int64_t knob_int(Knob knob, std::int64_t fallback);
double knob_double(Knob knob, double fallback);
bool knob_bool(Knob knob, bool fallback);

/// Throws ConfigError when an AGENTNET_* variable in the environment is not
/// a registered knob; the message names it and the nearest registered name.
void check_environment();

/// AGENTNET_RUNS (the paper uses 40) and AGENTNET_FULL (full paper-scale
/// sweeps), each after check_environment().
int bench_runs(int fallback);
bool bench_full();

/// Worker count for a fan-out asked for 0 threads: AGENTNET_THREADS when
/// set (>= 1; 1 is the exact serial path), else hardware_concurrency (>= 1).
/// Results are bit-identical at every setting (see docs/ARCHITECTURE.md).
std::size_t default_threads();

}  // namespace agentnet

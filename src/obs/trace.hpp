// Structured event tracing for agent lifecycles.
//
// Every record carries only *simulation* quantities (run id, step, agent
// id, node ids) — never wall-clock — so a traced run's event stream is as
// deterministic as the run itself: identical at every AGENTNET_THREADS
// setting. Events are buffered per replication and written in run-index
// order, so parallel replications never interleave in the output.
//
// Two on-disk formats (see docs/OBSERVABILITY.md):
//   jsonl  — one JSON object per line; the canonical, parse-backable form.
//   chrome — Trace Event instants loadable in chrome://tracing / Perfetto
//            (ts = simulation step in "microseconds", pid = run,
//            tid = agent).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "obs/obs_level.hpp"

namespace agentnet::obs {

enum class TraceEventKind : std::uint8_t {
  kSpawn,         ///< Agent placed on its start node.
  kMove,          ///< Agent migrated over a link.
  kMeet,          ///< A meeting group exchanged state.
  kMerge,         ///< One agent merged the pooled meeting state.
  kStamp,         ///< Stigmergy footprint written.
  kRouteUpdate,   ///< Agent installed a route at its node.
  kLost,          ///< Agent lost in transit (failure injection).
  kRespawn,       ///< Gateway launched a replacement agent.
  kBatteryDeath,  ///< A node's battery drained to zero.
  kNodeCrash,     ///< A node went down (crash window or blackout).
  kNodeRecover,   ///< A down node came back up.
  kBlackoutStart,  ///< A regional blackout became active.
  kBlackoutEnd,    ///< A regional blackout ended.
  kExchangeCorrupted,  ///< A meeting's knowledge exchange was corrupted.
  kWatchdogRespawn,    ///< The watchdog replaced a silent roster slot.
  kFlowStart,     ///< Traffic session opened (src, dst).
  kFlowEnd,       ///< Traffic session emitted its last packet.
  kPacketDrop,    ///< Data packets dropped at a node (count per step).
  kCheckpointSaved,     ///< Run state checkpointed at this step.
  kCheckpointRestored,  ///< Run resumed from a checkpoint at this step.
  kFinish,        ///< Mapping task finished (all maps perfect).
  kRunGroup,      ///< File marker: one experiment's group of runs follows.
  kCount
};

const char* trace_event_name(TraceEventKind kind);

/// One event. `agent`, `a` and `b` are kind-specific (see the field-name
/// table in trace.cpp); negative means "not applicable" and the field is
/// omitted from the serialized record.
struct TraceEvent {
  TraceEventKind kind{};
  std::uint64_t step = 0;
  std::int64_t agent = -1;
  std::int64_t a = -1;
  std::int64_t b = -1;
  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Per-replication event buffer: single writer, appended in program order.
class TraceBuffer {
 public:
  void enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  void append(const TraceEvent& event) {
    if (enabled_) events_.push_back(event);
  }
  const std::vector<TraceEvent>& events() const { return events_; }
  void clear() { events_.clear(); }

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

enum class TraceFormat { kJsonl, kChrome };

/// Canonical JSONL form; `run` < 0 omits the run field (kRunGroup markers).
std::string serialize_trace_line(std::int64_t run, const TraceEvent& event);

/// Chrome Trace Event form (one array element, no trailing comma).
std::string serialize_chrome_line(std::int64_t run, const TraceEvent& event);

/// A parsed JSONL record.
struct TraceRecord {
  std::int64_t run = -1;
  TraceEvent event;
};

/// Strict parse of one JSONL line; nullopt (with `*error` filled when
/// given, as "byte N: <what>") on malformed input, unknown event kinds or
/// unknown fields. Round-trips: serialize_trace_line(r.run, r.event)
/// reproduces the line.
std::optional<TraceRecord> parse_trace_line(const std::string& line,
                                            std::string* error = nullptr);

/// Appends one experiment's buffers to `path` in run-index order (buffer i
/// is run i), preceded by a kRunGroup marker in jsonl form, through
/// append_group (obs/codec.hpp): the first write to a path in this process
/// replaces it; later writes append, so a bench binary running many
/// experiments yields one file of run groups.
void write_trace(const std::string& path, TraceFormat format,
                 std::span<const TraceBuffer* const> buffers);

}  // namespace agentnet::obs

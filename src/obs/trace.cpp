#include "obs/trace.hpp"

#include <iterator>
#include <ostream>

#include "obs/codec.hpp"

namespace agentnet::obs {

namespace {

/// Field names for (agent, a, b) per kind; nullptr = field unused.
struct KindFields {
  const char* agent;
  const char* a;
  const char* b;
};

constexpr KindFields kKindFields[] = {
    /* spawn     */ {"agent", "node", nullptr},
    /* move      */ {"agent", "from", "to"},
    /* meet      */ {nullptr, "node", "size"},
    /* merge     */ {"agent", "node", nullptr},
    /* stamp     */ {nullptr, "node", "target"},
    /* route     */ {"agent", "node", "hops"},
    /* lost      */ {"agent", nullptr, nullptr},
    /* respawn   */ {"agent", "node", nullptr},
    /* death     */ {nullptr, "node", nullptr},
    /* crash     */ {nullptr, "node", nullptr},
    /* recover   */ {nullptr, "node", nullptr},
    /* bo_start  */ {nullptr, "blackout", "nodes"},
    /* bo_end    */ {nullptr, "blackout", nullptr},
    /* corrupt   */ {nullptr, "node", "size"},
    /* watchdog  */ {"agent", "node", nullptr},
    /* flow_start*/ {nullptr, "src", "dst"},
    /* flow_end  */ {nullptr, "src", "packets"},
    /* pkt_drop  */ {nullptr, "node", "count"},
    // Checkpoint events are fieldless (step only): checkpoint contents
    // vary with thread timing, so the record must not describe them.
    /* ckpt_save */ {nullptr, nullptr, nullptr},
    /* ckpt_rest */ {nullptr, nullptr, nullptr},
    /* finish    */ {nullptr, nullptr, nullptr},
    /* run_group */ {nullptr, "runs", nullptr},
};
static_assert(std::size(kKindFields) ==
                  static_cast<std::size_t>(TraceEventKind::kCount),
              "kKindFields must cover every TraceEventKind enumerator");

// Indexed by TraceEventKind; the static_assert makes adding an enumerator
// without a name (or vice versa) a compile error, not a "?" at runtime.
constexpr const char* kTraceEventNames[] = {
    "spawn",
    "move",
    "meet",
    "merge",
    "stamp",
    "route",
    "lost",
    "respawn",
    "death",
    "node_crash",
    "node_recover",
    "blackout_start",
    "blackout_end",
    "exchange_corrupted",
    "watchdog_respawn",
    "flow_start",
    "flow_end",
    "packet_drop",
    "checkpoint_saved",
    "checkpoint_restored",
    "finish",
    "run_group",
};
static_assert(std::size(kTraceEventNames) ==
                  static_cast<std::size_t>(TraceEventKind::kCount),
              "kTraceEventNames must name every TraceEventKind enumerator");

const KindFields& fields_of(TraceEventKind kind) {
  return kKindFields[static_cast<std::size_t>(kind)];
}

}  // namespace

const char* trace_event_name(TraceEventKind kind) {
  const auto i = static_cast<std::size_t>(kind);
  return i < static_cast<std::size_t>(TraceEventKind::kCount)
             ? kTraceEventNames[i]
             : "?";
}

std::string serialize_trace_line(std::int64_t run, const TraceEvent& event) {
  std::string out;
  JsonWriter json(out);
  json.open();
  if (run >= 0) json.field("run", run);
  json.field("ev", trace_event_name(event.kind));
  if (event.kind != TraceEventKind::kRunGroup)
    json.field("step", static_cast<std::int64_t>(event.step));
  const KindFields& fields = fields_of(event.kind);
  if (fields.agent && event.agent >= 0) json.field(fields.agent, event.agent);
  if (fields.a && event.a >= 0) json.field(fields.a, event.a);
  if (fields.b && event.b >= 0) json.field(fields.b, event.b);
  json.close();
  return out;
}

std::string serialize_chrome_line(std::int64_t run, const TraceEvent& event) {
  // Instant event on the (pid = run, tid = agent) track; ts is the
  // simulation step interpreted as microseconds — deterministic, not
  // wall-clock.
  std::string out;
  JsonWriter json(out);
  json.open();
  json.field("name", trace_event_name(event.kind));
  json.field("cat", "agentnet");
  json.field("ph", "i");
  json.field("s", "t");
  json.field("ts", event.step);
  json.field("pid", run >= 0 ? run : 0);
  json.field("tid", event.agent >= 0 ? event.agent : 0);
  json.open("args");
  const KindFields& fields = fields_of(event.kind);
  if (fields.a && event.a >= 0) json.field(fields.a, event.a);
  if (fields.b && event.b >= 0) json.field(fields.b, event.b);
  json.close();
  json.close();
  return out;
}

std::optional<TraceRecord> parse_trace_line(const std::string& line,
                                            std::string* error) {
  JsonReader reader(line, error);
  std::vector<FlatField> pairs;
  if (!read_flat_line(reader, pairs)) return std::nullopt;
  const auto fail = [&](std::size_t at, const std::string& message) {
    reader.fail_at(at, message);
    return std::nullopt;
  };

  TraceRecord record;
  bool have_kind = false;
  for (const FlatField& field : pairs) {
    if (field.key == "ev") {
      for (std::size_t k = 0;
           k < static_cast<std::size_t>(TraceEventKind::kCount); ++k) {
        if (field.value == trace_event_name(static_cast<TraceEventKind>(k))) {
          record.event.kind = static_cast<TraceEventKind>(k);
          have_kind = true;
          break;
        }
      }
      if (!have_kind)
        return fail(field.value_at, "unknown event kind: " + field.value);
    }
  }
  if (!have_kind) return fail(reader.pos(), "missing \"ev\" field");

  const KindFields& fields = fields_of(record.event.kind);
  for (const FlatField& field : pairs) {
    const std::string& key = field.key;
    if (key == "ev") continue;
    // The writer emits every other field as a bare non-negative integer
    // (an absent id is left out), so nothing else is a trace line.
    std::int64_t parsed = 0;
    if (field.quoted || !from_token(field.value, parsed) || parsed < 0)
      return fail(field.value_at, "field " + key +
                                      " is not a non-negative integer: " +
                                      field.value);
    if (key == "run")
      record.run = parsed;
    else if (key == "step" && record.event.kind != TraceEventKind::kRunGroup)
      record.event.step = static_cast<std::uint64_t>(parsed);
    else if (fields.agent && key == fields.agent)
      record.event.agent = parsed;
    else if (fields.a && key == fields.a)
      record.event.a = parsed;
    else if (fields.b && key == fields.b)
      record.event.b = parsed;
    else
      return fail(field.key_at, "unknown field \"" + key + "\" for event " +
                                    trace_event_name(record.event.kind));
  }
  return record;
}

void write_trace(const std::string& path, TraceFormat format,
                 std::span<const TraceBuffer* const> buffers) {
  append_group(path, "trace", [&](std::ostream& os, bool first) {
    if (format == TraceFormat::kJsonl) {
      TraceEvent marker;
      marker.kind = TraceEventKind::kRunGroup;
      marker.a = static_cast<std::int64_t>(buffers.size());
      os << serialize_trace_line(-1, marker) << "\n";
      for (std::size_t run = 0; run < buffers.size(); ++run)
        for (const TraceEvent& event : buffers[run]->events())
          os << serialize_trace_line(static_cast<std::int64_t>(run), event)
             << "\n";
    } else {
      // Trace Event JSON array format; the spec allows the closing ']' to
      // be absent, which is what makes appending run groups legal.
      if (first) os << "[\n";
      for (std::size_t run = 0; run < buffers.size(); ++run)
        for (const TraceEvent& event : buffers[run]->events())
          os << serialize_chrome_line(static_cast<std::int64_t>(run), event)
             << ",\n";
    }
  });
}

}  // namespace agentnet::obs

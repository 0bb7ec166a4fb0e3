// Validates AGENTNET_TRACE jsonl files: every line must parse back through
// obs::parse_trace_line (the strict round-tripping parser). Prints a per-
// file event count and exits non-zero on the first malformed line. Used by
// tools/run_paper_protocol.sh --smoke.
//
//   trace_check [--require=<event> ...] <trace.jsonl>...
//
// Each --require=<event> names a trace event (snake_case, e.g. node_crash,
// watchdog_respawn) that must appear at least once across ALL given files —
// the smoke harness uses it to prove a chaos run actually injected faults
// rather than silently taking the fault-free path. A bad line is reported
// as path:line:byte N: <what>. AGENTNET_METRICS streams are validated by
// `metrics_report validate`.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"

int main(int argc, char** argv) {
  std::vector<std::string> required;
  std::vector<const char*> files;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strncmp(argv[arg], "--require=", 10) == 0) {
      required.emplace_back(argv[arg] + 10);
      if (required.back().empty()) {
        std::fprintf(stderr, "trace_check: empty --require event name\n");
        return 2;
      }
    } else if (std::strncmp(argv[arg], "--", 2) == 0) {
      std::fprintf(stderr, "trace_check: unknown flag %s\n", argv[arg]);
      return 2;
    } else {
      files.push_back(argv[arg]);
    }
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: trace_check [--require=<event> ...] "
                 "<trace.jsonl>...\n");
    return 2;
  }
  bool ok = true;
  std::map<std::string, std::size_t> seen;
  for (const char* path : files) {
    std::ifstream is(path);
    if (!is.is_open()) {
      std::fprintf(stderr, "trace_check: cannot open %s\n", path);
      ok = false;
      continue;
    }
    std::string line;
    std::size_t line_no = 0, events = 0, groups = 0;
    bool file_ok = true;
    while (std::getline(is, line)) {
      ++line_no;
      if (line.empty()) continue;
      std::string error;
      const auto record = agentnet::obs::parse_trace_line(line, &error);
      if (!record) {
        std::fprintf(stderr, "trace_check: %s:%zu:%s\n", path, line_no,
                     error.c_str());
        file_ok = false;
        break;
      }
      if (record->event.kind == agentnet::obs::TraceEventKind::kRunGroup)
        ++groups;
      else
        ++events;
      ++seen[agentnet::obs::trace_event_name(record->event.kind)];
    }
    if (file_ok && groups == 0) {
      std::fprintf(stderr, "trace_check: %s: no run_group marker\n", path);
      file_ok = false;
    }
    if (file_ok)
      std::printf("trace_check: %s: %zu run groups, %zu events ok\n", path,
                  groups, events);
    ok = ok && file_ok;
  }
  for (const std::string& name : required) {
    const auto it = seen.find(name);
    const std::size_t count = it == seen.end() ? 0 : it->second;
    if (count == 0) {
      std::fprintf(stderr,
                   "trace_check: required event '%s' never appeared\n",
                   name.c_str());
      ok = false;
    } else {
      std::printf("trace_check: required event '%s': %zu occurrence(s)\n",
                  name.c_str(), count);
    }
  }
  return ok ? 0 : 1;
}

#include "obs/phase.hpp"

#include <iterator>

namespace agentnet::obs {

namespace {

// Indexed by Phase; the static_assert makes adding an enumerator without
// a name (or vice versa) a compile error, not a "?" at runtime.
constexpr const char* kPhaseNames[] = {
    "setup",
    "sense",
    "exchange",
    "exchange_plan",
    "decide",
    "move",
    "commit",
    "measure",
    "world_advance",
    "topo_build",
    "step",
    "merge",
    "summarize",
};
static_assert(std::size(kPhaseNames) == kPhaseCount,
              "kPhaseNames must name every Phase enumerator");

}  // namespace

const char* phase_name(Phase phase) {
  const auto i = static_cast<std::size_t>(phase);
  return i < kPhaseCount ? kPhaseNames[i] : "?";
}

PhaseSnapshot snapshot(const PhaseAccumulator& accumulator) {
  PhaseSnapshot out;
  for (std::size_t i = 0; i < kPhaseCount; ++i) {
    const auto phase = static_cast<Phase>(i);
    out.entries[i].calls = accumulator.calls(phase);
    out.entries[i].ns = accumulator.ns(phase);
  }
  return out;
}

}  // namespace agentnet::obs

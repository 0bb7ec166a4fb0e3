// Serialization of routing scenarios (placement + masks + the full
// movement script). A scenario is deterministic in its seed *on one
// machine*, but the mobility models use libm (sin/cos/log), whose last-bit
// behaviour differs across platforms — so byte-exact cross-machine
// reproduction requires shipping the materialised scenario, not the seed.
#pragma once

#include <iosfwd>
#include <string>

#include "core/routing_task.hpp"

namespace agentnet {

/// Writes `scenario` as a line-oriented text document (versioned header
/// "agentnet-scenario 1"; format documented in scenario_io.cpp).
void save_scenario(const RoutingScenario& scenario, std::ostream& os);

/// Parses a document produced by save_scenario. Throws ConfigError on
/// malformed or inconsistent input, naming the 1-based line; a frame may
/// move only the nodes flagged 'm'.
RoutingScenario load_scenario(std::istream& is);

void save_scenario_file(const RoutingScenario& scenario,
                        const std::string& path);
RoutingScenario load_scenario_file(const std::string& path);

}  // namespace agentnet

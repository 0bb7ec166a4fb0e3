#include "fault/fault_plan.hpp"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/env.hpp"
#include "common/error.hpp"
#include "common/options.hpp"

namespace agentnet {

void FaultPlan::validate() const {
  AGENTNET_REQUIRE(agent_loss_probability >= 0.0 &&
                       agent_loss_probability <= 1.0,
                   "agent loss probability must be in [0,1]");
  AGENTNET_REQUIRE(gateway_respawn_probability >= 0.0 &&
                       gateway_respawn_probability <= 1.0,
                   "respawn probability must be in [0,1]");
  AGENTNET_REQUIRE(exchange_failure_probability >= 0.0 &&
                       exchange_failure_probability <= 1.0,
                   "exchange failure probability must be in [0,1]");
  // Window-hashed faults mirror LinkFlapper's [0,1) domain: probability 1
  // would crash everything forever, which is not a simulation.
  AGENTNET_REQUIRE(node_crash_probability >= 0.0 &&
                       node_crash_probability < 1.0,
                   "node crash probability must be in [0,1)");
  AGENTNET_REQUIRE(burst_drop_probability >= 0.0 &&
                       burst_drop_probability < 1.0,
                   "burst drop probability must be in [0,1)");
  AGENTNET_REQUIRE(crash_persistence >= 1,
                   "crash persistence must be >= 1");
  AGENTNET_REQUIRE(burst_persistence >= 1,
                   "burst persistence must be >= 1");
  for (const Blackout& zone : blackouts)
    AGENTNET_REQUIRE(zone.radius >= 0.0,
                     "blackout radius must be non-negative");
}

FaultPlan FaultPlan::scaled(double intensity) const {
  AGENTNET_REQUIRE(intensity >= 0.0, "fault intensity must be >= 0");
  if (intensity == 0.0) return FaultPlan{};
  FaultPlan out = *this;
  const auto closed = [&](double p) {
    return std::min(1.0, p * intensity);
  };
  const auto open = [&](double p) {
    return std::min(0.99, p * intensity);
  };
  out.agent_loss_probability = closed(agent_loss_probability);
  out.gateway_respawn_probability = closed(gateway_respawn_probability);
  out.exchange_failure_probability = closed(exchange_failure_probability);
  out.node_crash_probability = open(node_crash_probability);
  out.burst_drop_probability = open(burst_drop_probability);
  return out;
}

std::vector<Blackout> parse_blackouts(const std::string& spec) {
  std::vector<Blackout> zones;
  std::istringstream items(spec);
  for (std::string item; std::getline(items, item, ';');) {
    if (item.empty()) continue;
    AGENTNET_REQUIRE(std::count(item.begin(), item.end(), ':') == 4,
                     "blackout spec needs x:y:radius:start:duration: " + item);
    // x, y and radius are any finite numbers; start and duration are step
    // counts, bounded so the size_t casts below are exact.
    constexpr double kMaxSteps = 9007199254740992.0;  // 2^53
    std::istringstream parts(item);
    double fields[5];
    for (int f = 0; f < 5; ++f) {
      std::string part;
      std::getline(parts, part, ':');
      fields[f] = parse_double(
          "blackout spec " + item, part,
          f < 3 ? std::numeric_limits<double>::lowest() : 0.0,
          f < 3 ? std::numeric_limits<double>::max() : kMaxSteps);
    }
    Blackout zone;
    zone.center = {fields[0], fields[1]};
    zone.radius = fields[2];
    zone.start = static_cast<std::size_t>(fields[3]);
    zone.duration = static_cast<std::size_t>(fields[4]);
    zones.push_back(zone);
  }
  return zones;
}

FaultPlan FaultPlan::from_env() {
  check_environment();
  FaultPlan plan;
  // Each knob's row bounds it, so the size_t casts never wrap.
  const auto count = [](Knob knob, std::size_t fallback) {
    return static_cast<std::size_t>(
        knob_int(knob, static_cast<std::int64_t>(fallback)));
  };
  plan.agent_loss_probability =
      knob_double(Knob::kFaultAgentLoss, plan.agent_loss_probability);
  plan.gateway_respawn_probability =
      knob_double(Knob::kFaultRespawn, plan.gateway_respawn_probability);
  plan.node_crash_probability =
      knob_double(Knob::kFaultNodeCrash, plan.node_crash_probability);
  plan.crash_persistence =
      count(Knob::kFaultCrashPersistence, plan.crash_persistence);
  plan.burst_drop_probability =
      knob_double(Knob::kFaultBurstDrop, plan.burst_drop_probability);
  plan.burst_persistence =
      count(Knob::kFaultBurstPersistence, plan.burst_persistence);
  plan.exchange_failure_probability =
      knob_double(Knob::kFaultExchange, plan.exchange_failure_probability);
  if (const auto spec = knob_string(Knob::kFaultBlackouts))
    plan.blackouts = parse_blackouts(*spec);
  plan.weather_seed = static_cast<std::uint64_t>(knob_int(
      Knob::kFaultSeed, static_cast<std::int64_t>(plan.weather_seed)));
  plan.watchdog_ttl = count(Knob::kFaultWatchdogTtl, plan.watchdog_ttl);
  plan.knowledge_ttl = count(Knob::kFaultKnowledgeTtl, plan.knowledge_ttl);
  plan.age_crashed_routes =
      knob_bool(Knob::kFaultRouteAging, plan.age_crashed_routes);
  plan.validate();
  return plan;
}

}  // namespace agentnet

// The unified fault model (ROADMAP: robustness): one declarative plan for
// every failure the simulator can inject, plus the resilience policies that
// keep a faulted run degrading instead of wedging.
//
// A FaultPlan is data, not state. Topology faults (node crash windows,
// regional blackouts, burst link outages) are pure hashes of
// (entity, step / persistence, weather_seed) — the same counted-RNG
// discipline as net/LinkFlapper — so the weather is identical at every
// thread count and needs no carried state. Event faults (in-transit agent
// loss, gateway respawn, corrupted exchanges) are drawn sequentially from
// one forked stream by the task loop (see fault_injector.hpp), in a fixed
// per-step order, so a run remains a pure function of (config, seed).
//
// Plans compose from config structs or from AGENTNET_FAULT_* environment
// variables (see docs/ROBUSTNESS.md for the full table); experiments take a
// trailing FaultConfig the same way they take an ObsConfig.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/vec2.hpp"

namespace agentnet {

/// A regional outage: every link touching a node inside the disc is down
/// for the window [start, start + duration). Blackouts partition the
/// network — the paper's incident-area story (sensors die in a burning
/// region) — and need node geometry; worlds without positions ignore them.
struct Blackout {
  Vec2 center{};
  double radius = 0.0;
  std::size_t start = 0;
  std::size_t duration = 0;

  bool active(std::size_t step) const {
    return step >= start && step - start < duration;
  }
  bool covers(const Vec2& p) const {
    return distance2(p, center) <= radius * radius;
  }
  friend bool operator==(const Blackout& x, const Blackout& y) {
    return x.center.x == y.center.x && x.center.y == y.center.y &&
           x.radius == y.radius && x.start == y.start &&
           x.duration == y.duration;
  }
};

struct FaultPlan {
  // --- Injection ---------------------------------------------------------
  /// Probability that a migrating agent is lost on any hop (mapping and
  /// routing alike). Subsumes RoutingTaskConfig::agent_loss_probability.
  double agent_loss_probability = 0.0;
  /// Gateway recovery: each step, every gateway relaunches one fresh agent
  /// with this probability while the team is under strength. Subsumes
  /// RoutingTaskConfig::gateway_respawn_probability.
  double gateway_respawn_probability = 0.0;
  /// Fraction of nodes crashed in any weather window: a crashed node's
  /// links are all down and agents standing on it are suspended. Outages
  /// last whole multiples of `crash_persistence` steps.
  double node_crash_probability = 0.0;
  std::size_t crash_persistence = 10;
  /// Burst link outages layered on top of the world's LinkFlapper: an
  /// independent flapper with its own (typically shorter) persistence.
  double burst_drop_probability = 0.0;
  std::size_t burst_persistence = 5;
  /// Probability that a meeting's knowledge exchange fails outright (the
  /// payload is corrupted and discarded; nobody learns anything).
  double exchange_failure_probability = 0.0;
  /// Regional outages (see Blackout).
  std::vector<Blackout> blackouts;
  /// Seed for the hash-gated topology faults; independent of the run seed
  /// so the same weather can be replayed under different agent behaviour.
  std::uint64_t weather_seed = 0xFA17DULL;

  // --- Resilience --------------------------------------------------------
  /// Agent watchdog TTL in steps; 0 disables. A roster slot whose agent
  /// has not migrated for more than `watchdog_ttl` steps is declared dead:
  /// the stuck agent (if any survives) is scrapped and a fresh replacement
  /// is launched (mapping: on a random live node; routing: at a live
  /// gateway).
  std::size_t watchdog_ttl = 0;
  /// Second-hand knowledge expiry in steps; 0 disables. Hearsay in
  /// MapKnowledge stores expires after between ttl and 2·ttl steps (epoch
  /// rotation); first-hand observations never expire.
  std::size_t knowledge_ttl = 0;
  /// Routing-table aging: clear entries whose next hop is currently
  /// crashed (they would fail validation anyway; aging frees the slot for
  /// fresh offers instead of waiting out the freshness window).
  bool age_crashed_routes = true;

  /// True when the plan injects or polices anything at all — a false here
  /// guarantees the task takes exactly its fault-free code path (and, for
  /// mapping, draws nothing from the run RNG).
  bool any() const {
    return agent_loss_probability > 0.0 ||
           gateway_respawn_probability > 0.0 ||
           exchange_failure_probability > 0.0 || topology_faults() ||
           watchdog_ttl > 0 || knowledge_ttl > 0;
  }

  /// True when the plan changes the live graph (crash / burst / blackout).
  bool topology_faults() const {
    return node_crash_probability > 0.0 || burst_drop_probability > 0.0 ||
           !blackouts.empty();
  }

  /// Throws ConfigError on out-of-range probabilities or zero persistence.
  void validate() const;

  /// The plan with every probability multiplied by `intensity` (clamped to
  /// its valid range). intensity 0 returns a default (inert) plan —
  /// blackouts and resilience policies included — so a degradation sweep's
  /// zero point reproduces the fault-free baseline exactly.
  FaultPlan scaled(double intensity) const;

  /// Reads the AGENTNET_FAULT_* knobs (table in docs/ROBUSTNESS.md). Unset
  /// variables keep the defaults above, so an empty environment yields an
  /// inert plan.
  static FaultPlan from_env();

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// The experiments' trailing-parameter alias, mirroring ObsConfig.
using FaultConfig = FaultPlan;

/// Parses the AGENTNET_FAULT_BLACKOUTS syntax: one "x:y:radius:start:
/// duration" spec per blackout, joined by ';'. Throws ConfigError on
/// malformed specs.
std::vector<Blackout> parse_blackouts(const std::string& spec);

}  // namespace agentnet

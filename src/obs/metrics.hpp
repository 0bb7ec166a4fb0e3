// Named simulation counters.
//
// Every counter is part of one fixed registry (the enum below) so a slot is
// a flat array — incrementing is a single relaxed atomic add, and merging
// two slots is element-wise integer addition, which is exact and
// order-independent. The experiment harness gives each replication its own
// slot and merges them in run-index order, so totals are bit-identical at
// every AGENTNET_THREADS setting (see docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>

#include "obs/obs_level.hpp"

namespace agentnet::obs {

enum class Counter : std::size_t {
  kAgentHops,            ///< Agent migrations over a link (all agent kinds).
  kAgentMeetings,        ///< Meeting groups that exchanged state.
  kKnowledgeMerges,      ///< Per-agent merges of pooled meeting state.
  kStigmergyStamps,      ///< Footprints written to a stigmergy board.
  kStigmergyAvoidances,  ///< Decisions where footprints demoted a neighbour.
  kRouteTableUpdates,    ///< Accepted route offers (RoutingTables::offer).
  kBatteryDeaths,        ///< Batteries newly drained to zero.
  kLinkFlaps,            ///< Links removed by link weather (LinkFlapper).
  kAgentsLost,           ///< Agents lost in transit (failure injection).
  kAgentsRespawned,      ///< Replacement agents launched by gateways.
  kNodeCrashes,          ///< Nodes newly down (crash window or blackout).
  kBlackoutStarts,       ///< Regional blackouts becoming active.
  kExchangesCorrupted,   ///< Meeting exchanges lost to corruption.
  kFaultLinkDrops,       ///< Edges masked out by the fault injector.
  kRoutesAged,           ///< Route entries cleared (crashed next hop).
  kWatchdogRespawns,     ///< Replacements launched by the agent watchdog.
  kAntsLaunched,         ///< Forward ants launched (ACO baseline).
  kAntHops,              ///< Ant hops, forward + backward (ACO baseline).
  kLsaMessages,          ///< LSA transmissions (flooding baseline).
  kLsaDropped,           ///< LSAs lost in transit (failure injection).
  kDvRelaxations,        ///< Accepted Bellman-Ford relaxations (DV agents).
  kTopoNodesDirty,       ///< Dirty nodes patched by a topology update.
  /// Always 0: World upkeep has no full-rebuild path. Kept, name included,
  /// because benchmark/agentnet_bench reports it as sim.full_rebuilds.
  kTopoFullRebuilds,
  kDerivedCacheHits,     ///< Epoch-keyed derived-state cache hits.
  kShardTilesDirty,      ///< Tiles holding ≥1 dirty node per advance().
  kShardHaloRows,        ///< Clean rows patched by halo exchange.
  kFlowsStarted,         ///< Traffic sessions opened by the flow generator.
  kFlowsCompleted,       ///< Traffic sessions that emitted their last packet.
  kPacketsGenerated,     ///< Data packets injected (counted arrivals).
  kPacketsDelivered,     ///< Data packets that reached their sink.
  kPacketsDropped,       ///< Data packets dropped (any reason).
  kAgentParallelBatches,  ///< Intra-run parallel agent dispatches.
  kCheckpointSaved,      ///< Checkpoints written (snapshot autosave).
  kCheckpointRestored,   ///< Runs resumed from a checkpoint.
  kCount
};

/// True for the checkpoint bookkeeping counters. They describe the
/// recovery machinery, not the simulation, and a resumed run legitimately
/// differs from an uninterrupted one here (one extra restore) — so they
/// are excluded from the deterministic output surface: CSV counter footers
/// skip them and MetricsBuffer::tick zeroes their deltas.
constexpr bool is_checkpoint_counter(Counter counter) {
  return counter == Counter::kCheckpointSaved ||
         counter == Counter::kCheckpointRestored;
}

/// True for counters describing the *machinery* rather than the
/// simulation: checkpoint bookkeeping plus the intra-run parallel
/// dispatch count (which legitimately differs between
/// AGENTNET_AGENT_THREADS settings while every simulation quantity stays
/// bit-identical). Excluded from the deterministic output surface: CSV
/// counter footers skip them and MetricsBuffer::tick zeroes their deltas.
constexpr bool is_bookkeeping_counter(Counter counter) {
  return is_checkpoint_counter(counter) ||
         counter == Counter::kAgentParallelBatches;
}

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable snake_case name, used in reports and CSV footers.
const char* counter_name(Counter counter);

/// One shard of every counter. Relaxed atomics make the shared ambient slot
/// safe under concurrency; per-run slots are single-writer anyway.
class CounterSlot {
 public:
  void add(Counter counter, std::uint64_t n = 1) {
    values_[static_cast<std::size_t>(counter)].fetch_add(
        n, std::memory_order_relaxed);
  }
  std::uint64_t value(Counter counter) const {
    return values_[static_cast<std::size_t>(counter)].load(
        std::memory_order_relaxed);
  }
  /// Overwrites one counter — checkpoint restore only; per-run slots are
  /// single-writer so the relaxed store cannot race a live increment.
  void set(Counter counter, std::uint64_t n) {
    values_[static_cast<std::size_t>(counter)].store(
        n, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<std::uint64_t>, kCounterCount> values_{};
};

/// Plain-integer copy of a slot; comparable and mergeable.
struct MetricsSnapshot {
  std::array<std::uint64_t, kCounterCount> values{};

  std::uint64_t value(Counter counter) const {
    return values[static_cast<std::size_t>(counter)];
  }
  MetricsSnapshot& operator+=(const MetricsSnapshot& other) {
    for (std::size_t i = 0; i < kCounterCount; ++i)
      values[i] += other.values[i];
    return *this;
  }
  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

MetricsSnapshot snapshot(const CounterSlot& slot);

/// Writes one `# name=value` comment line per nonzero counter — appended to
/// CSV exports so cache/telemetry totals (topo_nodes_dirty,
/// derived_cache_hits, ...) ride along with the data they explain.
void write_counter_footer(std::ostream& os, const CounterSlot& slot);

}  // namespace agentnet::obs

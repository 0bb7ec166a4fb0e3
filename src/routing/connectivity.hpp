// The paper's system-performance measure for dynamic routing:
// "the fraction of nodes in the system that has a valid route to at least
// one gateway". A route is valid when following next-hops from the node
// reaches a gateway over links that exist *right now*, without looping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/agent_parallel.hpp"
#include "net/graph.hpp"
#include "routing/routing_table.hpp"
#include "sim/world.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

struct ConnectivityResult {
  std::size_t connected = 0;  ///< Nodes with a valid gateway route.
  std::size_t total = 0;      ///< All nodes (gateways count as connected).
  double fraction() const {
    return total == 0 ? 0.0
                      : static_cast<double>(connected) /
                            static_cast<double>(total);
  }
};

/// Walks every node's routing-table chain over the live `graph`.
/// `is_gateway[i]` marks gateway nodes (always connected). `max_hops`
/// bounds the walk; 0 means node_count (any simple path fits).
ConnectivityResult measure_connectivity(const Graph& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops = 0);

/// Per-node validity flags from the same walk (diagnostics / tests).
std::vector<bool> valid_route_flags(const Graph& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops = 0);

/// Parallel variants: the per-root walks fan over the agent engine with
/// chunk-local memoisation. A verdict ("this node reaches a gateway over
/// valid next-hops right now") is an exact property of (graph, tables,
/// mask) — memo state only short-circuits, never changes an answer — so
/// the flags are bit-identical to the serial walk at any thread count.
/// An inactive engine takes the exact serial path.
std::vector<bool> valid_route_flags(const Graph& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops,
                                    const AgentParallel& par);
ConnectivityResult measure_connectivity(const Graph& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops,
                                        const AgentParallel& par);

/// Upper bound no agent system can beat: the fraction of nodes with *any*
/// live path to a gateway in `graph` (multi-source BFS on reversed edges).
ConnectivityResult oracle_connectivity(const Graph& graph,
                                       const std::vector<bool>& is_gateway);

/// Epoch sentinel forcing a cache miss (used when the measured graph is not
/// the world's own — e.g. a fault-masked view — so World::epoch() does not
/// version it).
inline constexpr std::uint64_t kNoCacheEpoch =
    static_cast<std::uint64_t>(-1);

/// Memoises measure_connectivity across steps. The walk result is a pure
/// function of (graph, tables, gateway mask, max_hops); the gateway mask is
/// fixed per run, so the cache keys on World::epoch() (bumped exactly when
/// the edge set changes) plus a copy of the table contents. A hit re-emits
/// the stored result — bit-identical, since the inputs are — and counts
/// kDerivedCacheHits; a miss walks world.graph() exactly like the uncached
/// path.
class ConnectivityCache {
 public:
  ConnectivityResult measure(const World& world, const RoutingTables& tables,
                             const std::vector<bool>& is_gateway,
                             std::size_t max_hops = 0);

  /// Parallel variant: a miss walks with the engine's per-root fan-out
  /// (bit-identical flags); the hit path is unchanged.
  ConnectivityResult measure(const World& world, const RoutingTables& tables,
                             const std::vector<bool>& is_gateway,
                             std::size_t max_hops, const AgentParallel& par);

  /// Checkpoint support: the cache MUST travel with the run — a hit emits
  /// kDerivedCacheHits, so a cold cache after resume would change counter
  /// totals vs. the uninterrupted run.
  void save_state(snapshot::ByteWriter& w) const {
    w.u64(epoch_);
    w.size(max_hops_);
    w.size(entries_.size());
    for (const RouteEntry& e : entries_) {
      w.scalar(e.next_hop);
      w.scalar(e.gateway);
      w.scalar(e.hops);
      w.size(e.installed_at);
    }
    w.size(result_.connected);
    w.size(result_.total);
  }
  void load_state(snapshot::ByteReader& r) {
    epoch_ = r.u64();
    max_hops_ = r.size();
    const std::size_t n = r.counted(4 * 8);
    entries_.resize(n);
    for (RouteEntry& e : entries_) {
      e.next_hop = r.scalar<NodeId>();
      e.gateway = r.scalar<NodeId>();
      e.hops = r.scalar<std::uint32_t>();
      e.installed_at = r.size();
    }
    result_.connected = r.size();
    result_.total = r.size();
  }

 private:
  std::uint64_t epoch_ = kNoCacheEpoch;
  std::size_t max_hops_ = 0;
  std::vector<RouteEntry> entries_;  ///< Table contents at cache time.
  ConnectivityResult result_{};
};

/// Memoises oracle_connectivity (the multi-source gateway BFS) on an edge-set
/// epoch. Pass World::epoch() when `graph` is the world's own live graph;
/// pass kNoCacheEpoch to force recomputation (fault-masked views). The
/// gateway mask must be the same per-run mask on every call.
class OracleConnectivityCache {
 public:
  /// `recorded`, when set, is this graph's oracle computed earlier (a
  /// shared world script): a miss takes it instead of running the BFS.
  /// Hits, the cached state and the checkpoint bytes are unchanged.
  ConnectivityResult measure(std::uint64_t epoch, const Graph& graph,
                             const std::vector<bool>& is_gateway,
                             const ConnectivityResult* recorded = nullptr);

  /// Checkpoint support (same rationale as ConnectivityCache). The
  /// transpose scratch is rebuilt on the next miss and is not carried.
  void save_state(snapshot::ByteWriter& w) const {
    w.u64(epoch_);
    w.size(result_.connected);
    w.size(result_.total);
  }
  void load_state(snapshot::ByteReader& r) {
    epoch_ = r.u64();
    result_.connected = r.size();
    result_.total = r.size();
  }

 private:
  std::uint64_t epoch_ = kNoCacheEpoch;
  Graph reversed_;  ///< Transpose scratch, recycled across misses.
  ConnectivityResult result_{};
};

}  // namespace agentnet

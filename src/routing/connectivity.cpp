#include "routing/connectivity.hpp"

#include <queue>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

namespace {

/// Chunk-local memo for the parallel walk (one per engine chunk).
struct WalkScratch {
  std::vector<char> state;
  std::vector<NodeId> path;
};

ConnectivityResult count_connected(const std::vector<bool>& valid) {
  ConnectivityResult result;
  result.total = valid.size();
  for (bool v : valid)
    if (v) ++result.connected;
  return result;
}

ConnectivityResult oracle_connectivity_impl(
    const Graph& graph, const std::vector<bool>& is_gateway,
    const Graph& rev) {
  const std::size_t n = graph.node_count();
  AGENTNET_REQUIRE(is_gateway.size() == n, "gateway mask size mismatch");
  // A node is potentially connected iff it reaches a gateway along edge
  // directions; BFS from all gateways over *incoming* edges.
  std::vector<bool> reach(n, false);
  std::queue<NodeId> frontier;
  for (NodeId v = 0; v < n; ++v) {
    if (is_gateway[v]) {
      reach[v] = true;
      frontier.push(v);
    }
  }
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId w : rev.out_neighbors(u)) {
      if (!reach[w]) {
        reach[w] = true;
        frontier.push(w);
      }
    }
  }
  return count_connected(reach);
}

}  // namespace

std::vector<bool> valid_route_flags(const Graph& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops) {
  const std::size_t n = graph.node_count();
  AGENTNET_REQUIRE(tables.size() == n, "tables/graph size mismatch");
  AGENTNET_REQUIRE(is_gateway.size() == n, "gateway mask size mismatch");
  std::vector<bool> valid(n, false);
  if (max_hops != 0 && max_hops < n) {
    // A tight hop budget makes validity depend on the remaining budget at
    // each node, so verdicts cannot be shared between walks; do exact
    // independent walks (still cheap: budget bounds each one).
    for (NodeId start = 0; start < n; ++start) {
      NodeId u = start;
      std::size_t hops = 0;
      while (!is_gateway[u] && hops < max_hops) {
        const RouteEntry& e = tables.entry(u);
        if (!e.valid() || !graph.has_edge(u, e.next_hop)) break;
        u = e.next_hop;
        ++hops;
      }
      valid[start] = is_gateway[u];
    }
    for (NodeId v = 0; v < n; ++v)
      if (is_gateway[v]) valid[v] = true;
    return valid;
  }
  max_hops = n;
  // Walks are memoised per measurement: 0 unknown, 1 good, 2 bad/visiting.
  std::vector<char> state(n, 0);
  for (NodeId start = 0; start < n; ++start) {
    if (state[start] != 0) {
      valid[start] = state[start] == 1;
      continue;
    }
    std::vector<NodeId> path;
    NodeId u = start;
    std::size_t hops = 0;
    char verdict = 2;
    while (true) {
      if (is_gateway[u] || state[u] == 1) {
        verdict = 1;
        break;
      }
      if (state[u] == 2) break;  // known dead end
      const RouteEntry& e = tables.entry(u);
      if (!e.valid() || hops >= max_hops) break;
      if (!graph.has_edge(u, e.next_hop)) break;  // link is gone right now
      state[u] = 2;  // mark visiting: revisiting it means a loop
      path.push_back(u);
      u = e.next_hop;
      ++hops;
    }
    for (NodeId v : path) state[v] = verdict;
    if (state[start] == 0) state[start] = verdict;  // start was a gateway
    valid[start] = verdict == 1;
  }
  for (NodeId v = 0; v < n; ++v)
    if (is_gateway[v]) valid[v] = true;
  return valid;
}

ConnectivityResult measure_connectivity(const Graph& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops) {
  return count_connected(
      valid_route_flags(graph, tables, is_gateway, max_hops));
}

// Parallel walk: roots fan over the agent engine, each chunk carrying its
// own memo. A verdict is an exact property of (graph, tables, mask) — the
// memo only short-circuits walks that would reach the same answer — so the
// flags match the serial walk bit for bit. Workers write byte slots
// (vector<bool> packs bits into shared words and would race).
std::vector<bool> valid_route_flags(const Graph& graph,
                                    const RoutingTables& tables,
                                    const std::vector<bool>& is_gateway,
                                    std::size_t max_hops,
                                    const AgentParallel& par) {
  const std::size_t n = graph.node_count();
  if (!par.active() || n < 2)
    return valid_route_flags(graph, tables, is_gateway, max_hops);
  AGENTNET_REQUIRE(tables.size() == n, "tables/graph size mismatch");
  AGENTNET_REQUIRE(is_gateway.size() == n, "gateway mask size mismatch");
  std::vector<char> flags(n, 0);
  if (max_hops != 0 && max_hops < n) {
    // Tight hop budget: walks are exact and independent per root.
    par.for_each(n, [&](std::size_t root) {
      NodeId u = static_cast<NodeId>(root);
      std::size_t hops = 0;
      while (!is_gateway[u] && hops < max_hops) {
        const RouteEntry& e = tables.entry(u);
        if (!e.valid() || !graph.has_edge(u, e.next_hop)) break;
        u = e.next_hop;
        ++hops;
      }
      flags[root] = is_gateway[u] ? 1 : 0;
    });
  } else {
    const std::size_t budget = n;
    par.for_each_scratch(
        n, [n] { return WalkScratch{std::vector<char>(n, 0), {}}; },
        [&](std::size_t root, WalkScratch& s) {
          const NodeId start = static_cast<NodeId>(root);
          if (s.state[start] != 0) {
            flags[root] = s.state[start] == 1 ? 1 : 0;
            return;
          }
          s.path.clear();
          NodeId u = start;
          std::size_t hops = 0;
          char verdict = 2;
          while (true) {
            if (is_gateway[u] || s.state[u] == 1) {
              verdict = 1;
              break;
            }
            if (s.state[u] == 2) break;  // known dead end / loop
            const RouteEntry& e = tables.entry(u);
            if (!e.valid() || hops >= budget) break;
            if (!graph.has_edge(u, e.next_hop)) break;
            s.state[u] = 2;
            s.path.push_back(u);
            u = e.next_hop;
            ++hops;
          }
          for (NodeId v : s.path) s.state[v] = verdict;
          if (s.state[start] == 0) s.state[start] = verdict;
          flags[root] = verdict == 1 ? 1 : 0;
        });
  }
  std::vector<bool> valid(n, false);
  for (NodeId v = 0; v < n; ++v)
    valid[v] = is_gateway[v] || flags[v] != 0;
  return valid;
}

ConnectivityResult measure_connectivity(const Graph& graph,
                                        const RoutingTables& tables,
                                        const std::vector<bool>& is_gateway,
                                        std::size_t max_hops,
                                        const AgentParallel& par) {
  return count_connected(
      valid_route_flags(graph, tables, is_gateway, max_hops, par));
}

ConnectivityResult oracle_connectivity(const Graph& graph,
                                       const std::vector<bool>& is_gateway) {
  Graph rev;
  graph.transposed_into(rev);
  return oracle_connectivity_impl(graph, is_gateway, rev);
}

ConnectivityResult ConnectivityCache::measure(
    const World& world, const RoutingTables& tables,
    const std::vector<bool>& is_gateway, std::size_t max_hops) {
  return measure(world, tables, is_gateway, max_hops, AgentParallel());
}

ConnectivityResult ConnectivityCache::measure(
    const World& world, const RoutingTables& tables,
    const std::vector<bool>& is_gateway, std::size_t max_hops,
    const AgentParallel& par) {
  if (epoch_ != kNoCacheEpoch && epoch_ == world.epoch() &&
      max_hops_ == max_hops && entries_ == tables.entries()) {
    AGENTNET_COUNT(kDerivedCacheHits);
    return result_;
  }
  result_ =
      measure_connectivity(world.graph(), tables, is_gateway, max_hops, par);
  epoch_ = world.epoch();
  max_hops_ = max_hops;
  entries_ = tables.entries();  // assign reuses capacity across steps
  return result_;
}

ConnectivityResult OracleConnectivityCache::measure(
    std::uint64_t epoch, const Graph& graph,
    const std::vector<bool>& is_gateway, const ConnectivityResult* recorded) {
  if (epoch != kNoCacheEpoch && epoch == epoch_) {
    AGENTNET_COUNT(kDerivedCacheHits);
    return result_;
  }
  if (recorded) {
    result_ = *recorded;
  } else {
    graph.transposed_into(reversed_);
    result_ = oracle_connectivity_impl(graph, is_gateway, reversed_);
  }
  epoch_ = epoch;
  return result_;
}

}  // namespace agentnet

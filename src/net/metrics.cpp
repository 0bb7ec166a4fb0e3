#include "net/metrics.hpp"

#include <algorithm>
#include <queue>

namespace agentnet {

namespace {

std::size_t count_reached(const std::vector<int>& dist) {
  return static_cast<std::size_t>(
      std::count_if(dist.begin(), dist.end(), [](int d) { return d >= 0; }));
}

}  // namespace

std::vector<int> bfs_distances(const Graph& graph, NodeId src) {
  AGENTNET_REQUIRE(src < graph.node_count(), "bfs source out of range");
  std::vector<int> dist(graph.node_count(), -1);
  std::queue<NodeId> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : graph.out_neighbors(u)) {
      if (dist[v] == -1) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

std::size_t reachable_count(const Graph& graph, NodeId src) {
  return count_reached(bfs_distances(graph, src));
}

bool is_strongly_connected(const Graph& graph) {
  if (graph.node_count() == 0) return true;
  if (reachable_count(graph, 0) != graph.node_count()) return false;
  return reachable_count(reversed(graph), 0) == graph.node_count();
}

bool is_weakly_connected(const Graph& graph) {
  if (graph.node_count() == 0) return true;
  Graph undirected(graph.node_count());
  for (const Edge& e : graph.edges())
    undirected.add_undirected_edge(e.from, e.to);
  return reachable_count(undirected, 0) == graph.node_count();
}

int diameter(const Graph& graph) {
  int best = 0;
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const auto dist = bfs_distances(graph, u);
    for (int d : dist) {
      if (d < 0) return -1;
      best = std::max(best, d);
    }
  }
  return best;
}

DegreeStats degree_stats(const Graph& graph) {
  DegreeStats stats;
  if (graph.node_count() == 0) return stats;
  stats.min_out = graph.out_degree(0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const std::size_t d = graph.out_degree(u);
    stats.min_out = std::min(stats.min_out, d);
    stats.max_out = std::max(stats.max_out, d);
  }
  // One bulk pass instead of node_count separate in_degree() scans.
  const std::vector<std::size_t> ins = graph.in_degrees();
  stats.min_in = ins[0];
  for (std::size_t d : ins) {
    stats.min_in = std::min(stats.min_in, d);
    stats.max_in = std::max(stats.max_in, d);
  }
  stats.mean_out = static_cast<double>(graph.edge_count()) /
                   static_cast<double>(graph.node_count());
  if (graph.edge_count() > 0) {
    std::size_t reciprocal = 0;
    for (const Edge& e : graph.edges())
      if (graph.has_edge(e.to, e.from)) ++reciprocal;
    stats.symmetry = static_cast<double>(reciprocal) /
                     static_cast<double>(graph.edge_count());
  }
  return stats;
}

Graph reversed(const Graph& graph) {
  Graph rev;
  graph.transposed_into(rev);
  return rev;
}

}  // namespace agentnet

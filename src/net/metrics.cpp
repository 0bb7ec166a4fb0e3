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

void bfs_distances(const Graph& graph, NodeId src, std::vector<int>& dist) {
  dist.assign(graph.node_count(), -1);
  AGENTNET_REQUIRE(src < graph.node_count(), "bfs source out of range");
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
}

std::vector<int> bfs_distances(const Graph& graph, NodeId src) {
  std::vector<int> dist;
  bfs_distances(graph, src, dist);
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

std::vector<int> strongly_connected_components(const Graph& graph) {
  const std::size_t n = graph.node_count();
  // Kosaraju with explicit stacks (no recursion: graphs can be long chains).
  std::vector<int> order;
  order.reserve(n);
  std::vector<char> visited(n, 0);
  for (NodeId start = 0; start < n; ++start) {
    if (visited[start]) continue;
    // Iterative post-order DFS.
    std::vector<std::pair<NodeId, std::size_t>> stack{{start, 0}};
    visited[start] = 1;
    while (!stack.empty()) {
      auto& [u, next] = stack.back();
      const auto neighbors = graph.out_neighbors(u);
      if (next < neighbors.size()) {
        const NodeId v = neighbors[next++];
        if (!visited[v]) {
          visited[v] = 1;
          stack.push_back({v, 0});
        }
      } else {
        order.push_back(static_cast<int>(u));
        stack.pop_back();
      }
    }
  }
  const Graph rev = reversed(graph);
  std::vector<int> component(n, -1);
  int comp_id = 0;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId root = static_cast<NodeId>(*it);
    if (component[root] != -1) continue;
    std::vector<NodeId> stack{root};
    component[root] = comp_id;
    while (!stack.empty()) {
      const NodeId u = stack.back();
      stack.pop_back();
      for (NodeId v : rev.out_neighbors(u)) {
        if (component[v] == -1) {
          component[v] = comp_id;
          stack.push_back(v);
        }
      }
    }
    ++comp_id;
  }
  return component;
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

int diameter(const Graph& graph, const AgentParallel& par) {
  const std::size_t n = graph.node_count();
  if (!par.active() || n < 2) return diameter(graph);
  // Per-root eccentricity slots (-1 = some pair unreachable), reduced in
  // root order; integer max, so identical at any thread count.
  std::vector<int> ecc(n, 0);
  par.for_each_scratch(
      n, [] { return std::vector<int>(); },
      [&](std::size_t u, std::vector<int>& dist) {
        bfs_distances(graph, static_cast<NodeId>(u), dist);
        int best = 0;
        for (int d : dist) {
          if (d < 0) {
            best = -1;
            break;
          }
          best = std::max(best, d);
        }
        ecc[u] = best;
      });
  int best = 0;
  for (int e : ecc) {
    if (e < 0) return -1;
    best = std::max(best, e);
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

double clustering_coefficient(const Graph& graph) {
  const std::size_t n = graph.node_count();
  // Undirected view.
  Graph und(n);
  for (const Edge& e : graph.edges()) und.add_undirected_edge(e.from, e.to);
  std::size_t closed_triplets = 0;  // counts each triangle 6 times
  std::size_t triplets = 0;         // ordered neighbour pairs per centre
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = und.out_neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        ++triplets;
        if (und.has_edge(nbrs[i], nbrs[j])) ++closed_triplets;
      }
    }
  }
  if (triplets == 0) return 0.0;
  return static_cast<double>(closed_triplets) /
         static_cast<double>(triplets);
}

std::vector<std::size_t> hop_histogram(const Graph& graph, NodeId src) {
  const auto dist = bfs_distances(graph, src);
  int max_d = 0;
  for (int d : dist) max_d = std::max(max_d, d);
  std::vector<std::size_t> hist(static_cast<std::size_t>(max_d) + 1, 0);
  for (int d : dist)
    if (d >= 0) ++hist[static_cast<std::size_t>(d)];
  return hist;
}

}  // namespace agentnet

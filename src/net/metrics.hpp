// Graph analysis used for generator validation, experiment sanity checks and
// tests: BFS, reachability, strong connectivity, degree statistics.
#pragma once

#include <cstddef>
#include <vector>

#include "net/graph.hpp"

namespace agentnet {

/// Hop distance from `src` to every node following out-edges; unreachable
/// nodes get -1.
std::vector<int> bfs_distances(const Graph& graph, NodeId src);

/// Number of nodes reachable from `src` (including src).
std::size_t reachable_count(const Graph& graph, NodeId src);

/// True iff every node can reach every other following edge directions.
bool is_strongly_connected(const Graph& graph);

/// True iff the graph, viewed with edge directions erased, is connected.
bool is_weakly_connected(const Graph& graph);

/// Longest shortest-path over all ordered pairs; -1 if any pair is
/// unreachable. O(V·E) — fine at agentnet's scales.
int diameter(const Graph& graph);

struct DegreeStats {
  std::size_t min_out = 0;
  std::size_t max_out = 0;
  double mean_out = 0.0;
  std::size_t min_in = 0;
  std::size_t max_in = 0;
  /// Fraction of directed edges u→v whose reverse v→u also exists.
  double symmetry = 0.0;
};

DegreeStats degree_stats(const Graph& graph);

/// Graph with every edge reversed.
Graph reversed(const Graph& graph);

}  // namespace agentnet

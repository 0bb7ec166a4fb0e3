// Graph analysis used for generator validation, experiment sanity checks and
// tests: BFS, reachability, strong connectivity, degree statistics.
#pragma once

#include <cstddef>
#include <vector>

#include "common/agent_parallel.hpp"
#include "net/graph.hpp"

namespace agentnet {

/// Hop distance from `src` to every node following out-edges; unreachable
/// nodes get -1.
std::vector<int> bfs_distances(const Graph& graph, NodeId src);
/// As above, reusing caller storage for the distance array.
void bfs_distances(const Graph& graph, NodeId src, std::vector<int>& dist);

/// Number of nodes reachable from `src` (including src).
std::size_t reachable_count(const Graph& graph, NodeId src);

/// True iff every node can reach every other following edge directions.
bool is_strongly_connected(const Graph& graph);

/// True iff the graph, viewed with edge directions erased, is connected.
bool is_weakly_connected(const Graph& graph);

/// Strongly connected components (Kosaraju, iterative); returns component
/// id per node, ids dense from 0.
std::vector<int> strongly_connected_components(const Graph& graph);

/// Longest shortest-path over all ordered pairs; -1 if any pair is
/// unreachable. O(V·E) — fine at agentnet's scales.
int diameter(const Graph& graph);
/// Parallel variant: the per-root BFS sweeps fan over the agent engine with
/// per-root result slots reduced in root order — integer max, so the value
/// is identical at any thread count. Inactive engine = exact serial path.
int diameter(const Graph& graph, const AgentParallel& par);

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

/// Global clustering coefficient of the undirected view: 3×triangles /
/// open-or-closed triplets; 0 for triangle-free graphs. Geometric radio
/// graphs cluster heavily, Erdős–Rényi graphs barely — used to verify
/// generator families behave like their textbook selves.
double clustering_coefficient(const Graph& graph);

/// Histogram of shortest-path hop counts from `src` (index = hops, value =
/// node count); unreachable nodes are excluded. hist[0] == 1 (src itself).
std::vector<std::size_t> hop_histogram(const Graph& graph, NodeId src);

}  // namespace agentnet

// Network generators.
//
// The paper evaluates mapping on "a single connected network consisting of
// 300 nodes with 2164 edges". The authors' concrete graph is unpublished, so
// we regenerate the same *class* of network: uniform random placement,
// heterogeneous radio ranges (⇒ directed links), with a search over a global
// range multiplier to hit a target edge count, retrying placements until the
// result is strongly connected (mapping must be completable by a walker).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "geom/vec2.hpp"
#include "net/graph.hpp"
#include "net/topology.hpp"

namespace agentnet {

/// A static snapshot: placement + base ranges + the full-battery link graph.
struct GeneratedNetwork {
  Aabb bounds{};
  std::vector<Vec2> positions;
  std::vector<double> base_ranges;
  LinkPolicy policy = LinkPolicy::kDirected;
  Graph graph;
};

struct GeometricNetworkParams {
  std::size_t node_count = 300;
  Aabb bounds{{0.0, 0.0}, {1000.0, 1000.0}};
  /// Per-node range = multiplier × uniform[min_range_factor, 1]. A factor
  /// of 1 reproduces Minar's homogeneous (symmetric) radios.
  double min_range_factor = 0.7;
  LinkPolicy policy = LinkPolicy::kDirected;
};

struct TargetEdgeParams {
  GeometricNetworkParams geometry{};
  std::size_t target_edges = 2164;
  /// Accept |edges - target| / target within this tolerance.
  double tolerance = 0.02;
  /// Placements to try before giving up on (strong) connectivity.
  int max_attempts = 64;
  /// Require strong connectivity (directed) — weak suffices for symmetric
  /// policies, where strong ≡ weak anyway.
  bool require_strongly_connected = true;
};

/// Searches a range multiplier to hit `target_edges` and retries placements
/// until the graph is (strongly) connected. Deterministic in `seed`.
/// Throws ConfigError when no acceptable network is found.
GeneratedNetwork generate_target_edge_network(const TargetEdgeParams& params,
                                              std::uint64_t seed);

/// The paper's mapping network: 300 nodes, ≈2164 bidirectional links
/// (≈4328 directed arcs), strongly connected. Deterministic in `seed`.
GeneratedNetwork paper_mapping_network(std::uint64_t seed);

// ---- Non-geometric graph families ------------------------------------------
// Radio networks are geometric; these families exist to test whether the
// agent algorithms' orderings are artefacts of geometry (bench extO). They
// produce bare Graphs (no positions); run them via World::fixed().

/// G(n, m) digraph: `arc_count` distinct directed arcs drawn uniformly.
/// Retries up to `max_attempts` draws for strong connectivity; throws
/// ConfigError when none is found (too sparse).
Graph erdos_renyi_digraph(std::size_t node_count, std::size_t arc_count,
                          std::uint64_t seed, int max_attempts = 64);

/// Barabási–Albert-style preferential attachment: each new node attaches
/// `edges_per_node` undirected edges (both arcs) to earlier nodes with
/// probability proportional to degree. Connected by construction; strongly
/// connected as a digraph because every edge is mutual.
Graph preferential_attachment_graph(std::size_t node_count,
                                    std::size_t edges_per_node,
                                    std::uint64_t seed);

}  // namespace agentnet

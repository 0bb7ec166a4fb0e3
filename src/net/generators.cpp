#include "net/generators.hpp"

#include <algorithm>
#include <cmath>

#include "mobility/mobility.hpp"
#include "net/metrics.hpp"

namespace agentnet {

namespace {

// Builds the network with all base ranges scaled by `multiplier` relative
// to their unit draw. Keeps placement and per-node draws fixed so the
// multiplier search is monotone.
struct ScaledBuilder {
  const GeometricNetworkParams& params;
  std::vector<Vec2> positions;
  std::vector<double> unit_ranges;  // per-node uniform draws in (0, 1]
  std::vector<double> ranges;       // unit_ranges × the last multiplier
  Graph probe;  ///< Every bisection probe is built into this one graph.

  void scale(double multiplier) {
    ranges.resize(unit_ranges.size());
    for (std::size_t i = 0; i < unit_ranges.size(); ++i)
      ranges[i] = multiplier * unit_ranges[i];
  }

  std::size_t edges(double multiplier) {
    scale(multiplier);
    TopologyBuilder(params.bounds, multiplier, params.policy)
        .build_into(probe, positions, ranges);
    return probe.edge_count();
  }

  GeneratedNetwork build(double multiplier) {
    GeneratedNetwork net;
    net.bounds = params.bounds;
    net.policy = params.policy;
    net.positions = positions;
    scale(multiplier);
    net.base_ranges = ranges;
    TopologyBuilder builder(params.bounds, multiplier, params.policy);
    net.graph = builder.build(net.positions, net.base_ranges);
    return net;
  }
};

bool connectivity_ok(const GeneratedNetwork& net, bool require_strong) {
  return require_strong ? is_strongly_connected(net.graph)
                        : is_weakly_connected(net.graph);
}

}  // namespace

GeneratedNetwork generate_target_edge_network(const TargetEdgeParams& params,
                                              std::uint64_t seed) {
  AGENTNET_REQUIRE(params.target_edges > 0, "target_edges must be > 0");
  AGENTNET_REQUIRE(params.tolerance > 0.0, "tolerance must be > 0");
  Rng master(seed);
  const double arena_diag =
      std::hypot(params.geometry.bounds.width(),
                 params.geometry.bounds.height());
  for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
    Rng rng = master.fork(static_cast<std::uint64_t>(attempt) + 1);
    ScaledBuilder scaled{
        params.geometry,
        random_positions(params.geometry.node_count, params.geometry.bounds,
                         rng),
        {}, {}, {}};
    scaled.unit_ranges.resize(params.geometry.node_count);
    for (auto& r : scaled.unit_ranges)
      r = rng.uniform_real(params.geometry.min_range_factor, 1.0);

    // Edge count grows monotonically with the multiplier: bisect. The
    // accepted multiplier is always `hi`; its network is built once, after
    // the search.
    const auto relative_error = [&](std::size_t edges) {
      return std::abs(static_cast<double>(edges) -
                      static_cast<double>(params.target_edges)) /
             static_cast<double>(params.target_edges);
    };
    double lo = arena_diag * 1e-4;
    double hi = arena_diag;
    std::size_t best_edges = scaled.edges(hi);
    if (best_edges < params.target_edges) continue;  // too sparse
    for (int iter = 0; iter < 60; ++iter) {
      const double mid = 0.5 * (lo + hi);
      const std::size_t edges = scaled.edges(mid);
      if (edges >= params.target_edges) {
        hi = mid;
        best_edges = edges;
      } else {
        lo = mid;
      }
      if (relative_error(best_edges) <= params.tolerance &&
          hi - lo < arena_diag * 1e-6)
        break;
    }
    if (relative_error(best_edges) > params.tolerance) continue;
    GeneratedNetwork best = scaled.build(hi);
    if (!connectivity_ok(best, params.require_strongly_connected)) continue;
    return best;
  }
  throw ConfigError(
      "generate_target_edge_network: no connected network hit the edge "
      "target; relax tolerance or adjust node count / bounds");
}

Graph erdos_renyi_digraph(std::size_t node_count, std::size_t arc_count,
                          std::uint64_t seed, int max_attempts) {
  AGENTNET_REQUIRE(node_count >= 2, "need at least two nodes");
  AGENTNET_REQUIRE(arc_count <= node_count * (node_count - 1),
                   "more arcs than the complete digraph holds");
  Rng master(seed);
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    Rng rng = master.fork(static_cast<std::uint64_t>(attempt) + 1);
    Graph g(node_count);
    while (g.edge_count() < arc_count) {
      const NodeId u = static_cast<NodeId>(rng.index(node_count));
      const NodeId v = static_cast<NodeId>(rng.index(node_count));
      g.add_edge(u, v);
    }
    if (is_strongly_connected(g)) return g;
  }
  throw ConfigError(
      "erdos_renyi_digraph: no strongly connected draw at this density");
}

Graph preferential_attachment_graph(std::size_t node_count,
                                    std::size_t edges_per_node,
                                    std::uint64_t seed) {
  AGENTNET_REQUIRE(edges_per_node >= 1, "need >= 1 edge per node");
  AGENTNET_REQUIRE(node_count > edges_per_node,
                   "need more nodes than edges per node");
  Rng rng(seed);
  Graph g(node_count);
  // Seed clique over the first m+1 nodes.
  std::vector<NodeId> endpoint_pool;  // one entry per edge endpoint
  for (NodeId u = 0; u <= edges_per_node; ++u)
    for (NodeId v = static_cast<NodeId>(u + 1); v <= edges_per_node; ++v) {
      g.add_undirected_edge(u, v);
      endpoint_pool.push_back(u);
      endpoint_pool.push_back(v);
    }
  for (NodeId newcomer = static_cast<NodeId>(edges_per_node + 1);
       newcomer < node_count; ++newcomer) {
    std::vector<NodeId> chosen;
    while (chosen.size() < edges_per_node) {
      // Sampling an endpoint uniformly is sampling ∝ degree.
      const NodeId candidate =
          endpoint_pool[rng.index(endpoint_pool.size())];
      if (std::find(chosen.begin(), chosen.end(), candidate) ==
          chosen.end())
        chosen.push_back(candidate);
    }
    for (NodeId target : chosen) {
      g.add_undirected_edge(newcomer, target);
      endpoint_pool.push_back(newcomer);
      endpoint_pool.push_back(target);
    }
  }
  return g;
}

GeneratedNetwork paper_mapping_network(std::uint64_t seed) {
  TargetEdgeParams params;
  params.geometry.node_count = 300;
  params.geometry.bounds = {{0.0, 0.0}, {1000.0, 1000.0}};
  params.geometry.min_range_factor = 0.7;
  params.geometry.policy = LinkPolicy::kDirected;
  // The paper inherits "300 nodes with 2164 edges" from Minar et al., whose
  // network was symmetric — 2164 bidirectional links. In this directed
  // environment each link is up to two arcs, so we target 4328 directed
  // edges (mean out-degree ≈ 14.4). Targeting 2164 *arcs* instead would put
  // the geometric graph near its connectivity threshold, where random-walk
  // cover times blow up and no algorithm ordering from the paper survives.
  params.target_edges = 2 * 2164;
  return generate_target_edge_network(params, seed);
}

}  // namespace agentnet

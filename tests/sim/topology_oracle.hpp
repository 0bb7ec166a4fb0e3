// The full-rebuild oracle for World's topology upkeep (docs/PERFORMANCE.md,
// "Topology upkeep").
//
// World::advance() patches the link graph incrementally and never rebuilds
// it. full_rebuild_oracle() builds the link graph from scratch for the
// world's current positions and quantized ranges and applies the link
// weather, so every upkeep test can compare the patched graph against it
// step by step.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "net/topology.hpp"
#include "sim/world.hpp"

namespace agentnet {

/// The world's current effective ranges, coarsened like World does for an
/// AGENTNET_TOPO_RANGE_QUANTUM of `quantum` (0 = exact).
inline std::vector<double> quantized_ranges(const World& world,
                                            double quantum) {
  std::vector<double> ranges(world.node_count());
  for (NodeId v = 0; v < world.node_count(); ++v) {
    const double r = world.effective_range(v);
    ranges[v] = quantum > 0.0 ? std::floor(r / quantum) * quantum : r;
  }
  return ranges;
}

/// Removes the links the world's flapper holds down at the current step.
inline void apply_weather(const World& world, Graph& graph) {
  const auto& flapper = world.link_flapper();
  if (flapper && flapper->drop_probability() > 0.0)
    flapper->apply(graph, world.step());
}

/// What graph() must equal: a from-scratch TopologyBuilder::build plus the
/// weather.
inline Graph full_rebuild_oracle(const World& world, double quantum) {
  TopologyBuilder builder(world.bounds(), world.radio().max_base_range(),
                          world.link_policy());
  Graph graph =
      builder.build(world.positions(), quantized_ranges(world, quantum));
  apply_weather(world, graph);
  return graph;
}

/// How often the edge set moved and held over a checked run.
struct EpochTally {
  std::size_t moved = 0;
  std::size_t held = 0;
};

/// Advances `world` `steps` times. Before the first and after every step
/// graph() must equal the oracle and csr() must freeze graph(); across
/// every step epoch() must move exactly when the edge set does.
inline EpochTally expect_upkeep_matches_oracle(World& world, int steps,
                                               double quantum,
                                               const std::string& what) {
  EpochTally tally;
  EXPECT_EQ(world.graph(), full_rebuild_oracle(world, quantum)) << what;
  EXPECT_EQ(world.csr(), CsrView(world.graph())) << what;
  for (int step = 0; step < steps; ++step) {
    const Graph before = world.graph();
    const std::uint64_t epoch = world.epoch();
    world.advance();
    const std::string where = what + " step " + std::to_string(step);
    const bool changed = !(world.graph() == before);
    EXPECT_EQ(world.graph(), full_rebuild_oracle(world, quantum)) << where;
    EXPECT_EQ(world.csr(), CsrView(world.graph())) << where;
    EXPECT_EQ(world.epoch() != epoch, changed) << where;
    if (::testing::Test::HasFailure()) return tally;
    (changed ? tally.moved : tally.held) += 1;
  }
  return tally;
}

}  // namespace agentnet

#include "core/mapping_agent.hpp"

#include <gtest/gtest.h>

#include <set>

#include "map_knowledge_oracle.hpp"

namespace agentnet {
namespace {

// 0 ↔ {1,2,3} star plus a 1↔2 chord, all bidirectional.
Graph star_graph() {
  Graph g(4);
  g.add_undirected_edge(0, 1);
  g.add_undirected_edge(0, 2);
  g.add_undirected_edge(0, 3);
  g.add_undirected_edge(1, 2);
  return g;
}

/// Every ordered pair of the 4 nodes, so agents can sense any test graph.
const EdgeIndex& pair_index() {
  static const EdgeIndex index = [] {
    EdgeIndex all{Graph(4)};
    const std::vector<NodeId> nodes{0, 1, 2, 3};
    for (NodeId u = 0; u < 4; ++u) all.add_row(u, nodes);
    return all;
  }();
  return index;
}

MappingAgent make_agent(MappingPolicy policy, StigmergyMode mode,
                        NodeId start = 0, std::uint64_t seed = 1) {
  return MappingAgent(0, start, pair_index(), {policy, mode}, Rng(seed));
}

TEST(MappingAgentTest, SenseLearnsOutEdges) {
  const Graph g = star_graph();
  auto agent = make_agent(MappingPolicy::kRandom, StigmergyMode::kOff);
  agent.sense(g, 0);
  EXPECT_TRUE(agent.knowledge().knows_edge(0, 1));
  EXPECT_TRUE(agent.knowledge().knows_edge(0, 2));
  EXPECT_TRUE(agent.knowledge().knows_edge(0, 3));
  EXPECT_EQ(agent.knowledge().known_edge_count(), 3u);
}

TEST(MappingAgentTest, RandomPolicyCoversAllNeighbors) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  auto agent = make_agent(MappingPolicy::kRandom, StigmergyMode::kOff);
  std::set<NodeId> chosen;
  for (int i = 0; i < 200; ++i) chosen.insert(agent.decide(g, board, 0));
  EXPECT_EQ(chosen, (std::set<NodeId>{1, 2, 3}));
}

TEST(MappingAgentTest, DeadEndAgentWaits) {
  Graph g(2);  // node 0 has no out-edges
  StigmergyBoard board(2);
  auto agent = make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff);
  EXPECT_EQ(agent.decide(g, board, 0), 0u);
}

TEST(MappingAgentTest, ConscientiousPrefersUnvisited) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  auto agent =
      make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff);
  agent.sense(g, 0);
  // Walk 0 → 1 → 2 → back to 0: neighbours 1 and 2 become visited.
  agent.move_to(1);
  agent.sense(g, 1);
  agent.move_to(2);
  agent.sense(g, 2);
  agent.move_to(0);
  // Node 3 is the only never-visited neighbour of 0.
  for (int i = 0; i < 50; ++i) EXPECT_EQ(agent.decide(g, board, 3), 3u);
}

TEST(MappingAgentTest, ConscientiousPicksLeastRecentlyVisited) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  auto agent =
      make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff);
  // Visit all neighbours at different times: 1@t1, 2@t2, 3@t3.
  agent.sense(g, 0);
  for (NodeId v : {1u, 2u, 3u}) {
    agent.move_to(v);
    agent.sense(g, v);
    agent.move_to(0);
  }
  // All visited; least recent is 1.
  EXPECT_EQ(agent.decide(g, board, 10), 1u);
}

TEST(MappingAgentTest, ConscientiousIgnoresSecondHandVisits) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  auto a = make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff, 0,
                      1);
  auto b = make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff, 1,
                      2);
  a.sense(g, 0);
  b.sense(g, 0);  // b pretends to be at 0? use b's own start
  // b visits nodes 1..3 first-hand; a learns it second-hand.
  for (NodeId v : {1u, 2u, 3u}) {
    b.move_to(v);
    b.sense(g, v);
  }
  meet(a, b);
  // Conscientious a still treats 1..3 as unvisited (first-hand view), so
  // its decision is a shared-hash pick over the full 3-way tie — stable
  // across calls with the same (node, step, tie set). A super-conscientious
  // agent would have no tie and would pick 3 (see the next test).
  const NodeId first = a.decide(g, board, 5);
  EXPECT_TRUE(first == 1u || first == 2u || first == 3u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.decide(g, board, 5), first);
}

TEST(MappingAgentTest, SuperConscientiousUsesSecondHandVisits) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  auto a = make_agent(MappingPolicy::kSuperConscientious, StigmergyMode::kOff,
                      0, 1);
  auto b = make_agent(MappingPolicy::kSuperConscientious, StigmergyMode::kOff,
                      1, 2);
  a.sense(g, 0);
  // b visits 1 and 2 first-hand; 3 stays unvisited by anyone.
  b.sense(g, 1);
  b.move_to(2);
  b.sense(g, 2);
  meet(a, b);
  // a should now prefer 3 (never visited by either agent).
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.decide(g, board, 5), 3u);
}

TEST(MappingAgentTest, StigmergyFilterAvoidsMarkedTargets) {
  const Graph g = star_graph();
  StigmergyBoard board(4, 0, 4);
  board.stamp(0, 1, 0);
  board.stamp(0, 2, 0);
  auto agent = make_agent(MappingPolicy::kRandom, StigmergyMode::kFilterFirst);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(agent.decide(g, board, 0), 3u);
}

TEST(MappingAgentTest, StigmergyAllMarkedFallsBackToAll) {
  const Graph g = star_graph();
  StigmergyBoard board(4, 0, 4);
  for (NodeId v : {1u, 2u, 3u}) board.stamp(0, v, 0);
  auto agent = make_agent(MappingPolicy::kRandom, StigmergyMode::kFilterFirst);
  std::set<NodeId> chosen;
  for (int i = 0; i < 200; ++i) chosen.insert(agent.decide(g, board, 0));
  EXPECT_EQ(chosen.size(), 3u) << "must not deadlock when all are marked";
}

TEST(MappingAgentTest, TieBreakModeOnlySplitsTies) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  auto agent =
      make_agent(MappingPolicy::kConscientious, StigmergyMode::kTieBreak);
  // Visit node 3 so nodes 1,2 tie as never-visited; mark 1.
  agent.sense(g, 0);
  agent.move_to(3);
  agent.sense(g, 3);
  agent.move_to(0);
  board.stamp(0, 1, 4);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(agent.decide(g, board, 5), 2u);
}

TEST(MappingAgentTest, TieBreakDoesNotOverrideKey) {
  const Graph g = star_graph();
  StigmergyBoard board(4, 0, 4);
  auto agent =
      make_agent(MappingPolicy::kConscientious, StigmergyMode::kTieBreak);
  agent.sense(g, 0);
  agent.move_to(1);
  agent.sense(g, 1);
  agent.move_to(0);
  // 2 and 3 unvisited; mark both. 1 is visited and unmarked. In tie-break
  // mode the key still wins: agent must go to 2 or 3, not 1.
  board.stamp(0, 2, 2);
  board.stamp(0, 3, 2);
  for (int i = 0; i < 50; ++i) EXPECT_NE(agent.decide(g, board, 3), 1u);
}

TEST(MappingAgentTest, FilterFirstCanOverrideKey) {
  const Graph g = star_graph();
  StigmergyBoard board(4, 0, 4);
  auto agent =
      make_agent(MappingPolicy::kConscientious, StigmergyMode::kFilterFirst);
  agent.sense(g, 0);
  agent.move_to(1);
  agent.sense(g, 1);
  agent.move_to(0);
  // 2 and 3 unvisited but marked; 1 visited and unmarked → filter-first
  // sends the agent through the unmarked door even though it was visited.
  board.stamp(0, 2, 2);
  board.stamp(0, 3, 2);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(agent.decide(g, board, 3), 1u);
}

TEST(MappingAgentTest, StateSizeGrowsWithKnowledge) {
  const Graph g = star_graph();
  auto agent = make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff);
  const std::size_t empty = agent.state_size_bytes();
  EXPECT_EQ(empty, 64u);
  agent.sense(g, 0);
  EXPECT_GT(agent.state_size_bytes(), empty);
}

TEST(MappingAgentTest, FullRandomnessBehavesLikeRandomPolicy) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  MappingAgent agent(0, 0, pair_index(),
                     {MappingPolicy::kConscientious, StigmergyMode::kOff,
                      1.0},
                     Rng(5));
  // With randomness 1.0 every decision is a uniform neighbour draw, so all
  // three neighbours must appear even though the policy would be
  // deterministic.
  std::set<NodeId> chosen;
  for (int i = 0; i < 200; ++i) chosen.insert(agent.decide(g, board, 0));
  EXPECT_EQ(chosen.size(), 3u);
}

TEST(MappingAgentTest, ZeroRandomnessConsumesNoExtraEntropy) {
  const Graph g = star_graph();
  StigmergyBoard board(4);
  auto a = make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff, 0,
                      9);
  auto b = make_agent(MappingPolicy::kConscientious, StigmergyMode::kOff, 0,
                      9);
  a.sense(g, 0);
  b.sense(g, 0);
  for (int i = 0; i < 20; ++i)
    ASSERT_EQ(a.decide(g, board, i), b.decide(g, board, i));
}

TEST(MappingAgentTest, ToStringNames) {
  EXPECT_STREQ(to_string(MappingPolicy::kRandom), "random");
  EXPECT_STREQ(to_string(MappingPolicy::kConscientious), "conscientious");
  EXPECT_STREQ(to_string(MappingPolicy::kSuperConscientious),
               "super-conscientious");
}

}  // namespace
}  // namespace agentnet

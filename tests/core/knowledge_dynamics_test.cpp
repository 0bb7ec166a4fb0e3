// Cross-cutting behavioural tests of the knowledge/meeting machinery that
// sit above single classes but below full integration: gossip spread,
// second-hand transitivity through a running task, and the lockstep
// mechanism (identical knowledge ⇒ identical moves) that powers the
// paper's negative results.
#include <gtest/gtest.h>

#include "core/mapping_task.hpp"
#include "map_knowledge_oracle.hpp"
#include "net/generators.hpp"

namespace agentnet {
namespace {

// A ring makes meetings easy to stage: agents placed on the same node stay
// co-located exactly as long as they keep choosing the same neighbour.
Graph ring(std::size_t n) {
  Graph g(n);
  for (NodeId i = 0; i < n; ++i)
    g.add_undirected_edge(i, static_cast<NodeId>((i + 1) % n));
  return g;
}

/// A two-agent meeting as the mapping task runs it: both adopt one pool.
void meet_both(MappingAgent& a, MappingAgent& b) {
  KnowledgePool pool;
  pool.add(a.knowledge());
  pool.add(b.knowledge());
  a.adopt(pool);
  b.adopt(pool);
}

TEST(KnowledgeDynamicsTest, LockstepOfIdenticalSuperAgents) {
  // Two super-conscientious agents with identical knowledge at the same
  // node must move identically, step after step (the Fig 5 mechanism).
  const Graph g = ring(16);
  const EdgeIndex index(g);
  StigmergyBoard board(16);
  MappingAgent a(0, 5, index, {MappingPolicy::kSuperConscientious,
                            StigmergyMode::kOff},
                 Rng(1));
  MappingAgent b(1, 5, index, {MappingPolicy::kSuperConscientious,
                            StigmergyMode::kOff},
                 Rng(999));  // different private randomness must not matter
  for (std::size_t t = 0; t < 40; ++t) {
    a.sense(g, t);
    b.sense(g, t);
    meet_both(a, b);
    const NodeId ta = a.decide(g, board, t);
    const NodeId tb = b.decide(g, board, t);
    ASSERT_EQ(ta, tb) << "identical deciders diverged at step " << t;
    a.move_to(ta);
    b.move_to(tb);
  }
}

TEST(KnowledgeDynamicsTest, StigmergyBreaksTheLockstep) {
  // Same setup, but the first mover stamps its exit: the second must take
  // a different door (the Fig 6 / extA mechanism).
  const Graph g = ring(16);
  const EdgeIndex index(g);
  StigmergyBoard board(16);
  MappingAgent a(0, 5, index, {MappingPolicy::kSuperConscientious,
                            StigmergyMode::kFilterFirst},
                 Rng(1));
  MappingAgent b(1, 5, index, {MappingPolicy::kSuperConscientious,
                            StigmergyMode::kFilterFirst},
                 Rng(2));
  a.sense(g, 0);
  b.sense(g, 0);
  meet_both(a, b);
  const NodeId ta = a.decide(g, board, 0);
  board.stamp(a.location(), ta, 0);
  const NodeId tb = b.decide(g, board, 0);
  EXPECT_NE(ta, tb) << "the footprint must disperse the pair";
}

TEST(KnowledgeDynamicsTest, GossipReachesEveryoneThroughChains) {
  // Three agents in a line of meetings: a meets b, then b meets c — c must
  // end up with a's first-hand knowledge without ever meeting a.
  const Graph g = ring(10);
  const EdgeIndex index(g);
  MappingAgent a(0, 0, index, {}, Rng(1));
  MappingAgent b(1, 0, index, {}, Rng(2));
  MappingAgent c(2, 0, index, {}, Rng(3));
  a.sense(g, 0);  // a learns ring edges at node 0
  meet(b, a);
  meet(c, b);
  EXPECT_TRUE(c.knowledge().knows_edge(0, 1));
  EXPECT_TRUE(c.knowledge().knows_edge(0, 9));
  EXPECT_FALSE(c.knowledge().knows_edge_first_hand(0, 1));
}

TEST(KnowledgeDynamicsTest, TaskExchangeIsSimultaneous) {
  // In the task's pooled exchange, an agent must receive the knowledge its
  // peers had BEFORE the exchange, not knowledge that itself arrived this
  // step from a third agent transitively... which pooled union does give.
  // What must NOT happen is order dependence: permuting agent ids (same
  // seeds otherwise) yields the same finishing time distribution. We test
  // the weaker, checkable property: two runs with identical configs give
  // identical results even though decide order is shuffled per step.
  TargetEdgeParams params;
  params.geometry.node_count = 40;
  params.target_edges = 240;
  params.tolerance = 0.05;
  const auto net = generate_target_edge_network(params, 61);
  MappingTaskConfig cfg;
  cfg.population = 6;
  cfg.agent = {MappingPolicy::kSuperConscientious,
               StigmergyMode::kFilterFirst};
  World w1 = World::frozen(net);
  World w2 = World::frozen(net);
  const auto r1 = run_mapping_task(w1, cfg, Rng(9));
  const auto r2 = run_mapping_task(w2, cfg, Rng(9));
  EXPECT_EQ(r1.finishing_time, r2.finishing_time);
  EXPECT_EQ(r1.mean_knowledge, r2.mean_knowledge);
}

TEST(KnowledgeDynamicsTest, CommunicationOffIsolatesKnowledge) {
  TargetEdgeParams params;
  params.geometry.node_count = 30;
  params.target_edges = 170;
  params.tolerance = 0.06;
  const auto net = generate_target_edge_network(params, 62);
  World world = World::frozen(net);
  MappingTaskConfig cfg;
  cfg.population = 4;
  cfg.communication = false;
  cfg.agent = {MappingPolicy::kConscientious, StigmergyMode::kOff};
  cfg.max_steps = 40;  // stop early, well before anyone finishes
  const auto result = run_mapping_task(world, cfg, Rng(10));
  // Without communication min < mean strictly at the cutoff: agents cannot
  // have converged to identical knowledge by luck in 40 steps.
  ASSERT_FALSE(result.finished);
  EXPECT_LT(result.min_knowledge.back(), result.mean_knowledge.back());
}

}  // namespace
}  // namespace agentnet

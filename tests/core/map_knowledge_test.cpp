#include "core/map_knowledge.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "map_knowledge_oracle.hpp"
#include "net/generators.hpp"
#include "sim/world.hpp"

namespace agentnet {
namespace {

/// An index with every ordered pair registered (self-loops included), so
/// hand-written observations need no registration step.
EdgeIndex all_pairs(std::size_t n) {
  EdgeIndex index{Graph(n)};
  std::vector<NodeId> all(n);
  std::iota(all.begin(), all.end(), NodeId{0});
  for (NodeId u = 0; u < n; ++u) index.add_row(u, all);
  return index;
}

const EdgeIndex kPairs3 = all_pairs(3);
const EdgeIndex kPairs4 = all_pairs(4);
const EdgeIndex kPairs5 = all_pairs(5);
const EdgeIndex kPairs6 = all_pairs(6);

TEST(MapKnowledgeTest, StartsEmpty) {
  MapKnowledge k(kPairs5);
  EXPECT_EQ(k.known_edge_count(), 0u);
  EXPECT_EQ(k.first_hand_edge_count(), 0u);
  for (NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(k.last_visit_first_hand(v), kNeverVisited);
}

TEST(MapKnowledgeTest, ObserveRecordsEdgesAndVisit) {
  MapKnowledge k(kPairs5);
  const std::vector<NodeId> out{1, 3};
  k.observe_node(0, out, 7);
  EXPECT_TRUE(k.knows_edge(0, 1));
  EXPECT_TRUE(k.knows_edge_first_hand(0, 3));
  EXPECT_FALSE(k.knows_edge(1, 0));
  EXPECT_EQ(k.known_edge_count(), 2u);
  EXPECT_EQ(k.last_visit_first_hand(0), 7);
  EXPECT_EQ(k.last_visit_any(0), 7);
}

TEST(MapKnowledgeTest, RepeatObservationDoesNotDoubleCount) {
  MapKnowledge k(kPairs4);
  const std::vector<NodeId> out{1};
  k.observe_node(0, out, 1);
  k.observe_node(0, out, 5);
  EXPECT_EQ(k.known_edge_count(), 1u);
  EXPECT_EQ(k.last_visit_first_hand(0), 5);
}

TEST(MapKnowledgeTest, MeetingKeepsHandsSeparate) {
  MapKnowledge a(kPairs4), b(kPairs4);
  const std::vector<NodeId> out_b{2};
  b.observe_node(1, out_b, 3);
  meet(a, b);
  EXPECT_TRUE(a.knows_edge(1, 2));
  EXPECT_FALSE(a.knows_edge_first_hand(1, 2))
      << "peer knowledge must land in the second-hand store";
  EXPECT_EQ(a.first_hand_edge_count(), 0u);
  EXPECT_EQ(a.known_edge_count(), 1u);
}

TEST(MapKnowledgeTest, MeetingPropagatesVisitTimes) {
  MapKnowledge a(kPairs4), b(kPairs4);
  const std::vector<NodeId> none{};
  b.observe_node(2, none, 9);
  meet(a, b);
  EXPECT_EQ(a.last_visit_any(2), 9);
  EXPECT_EQ(a.last_visit_first_hand(2), kNeverVisited);
}

TEST(MapKnowledgeTest, MeetingTakesMaxVisitTime) {
  MapKnowledge a(kPairs4), b(kPairs4);
  const std::vector<NodeId> none{};
  a.observe_node(2, none, 10);
  b.observe_node(2, none, 4);
  meet(a, b);
  EXPECT_EQ(a.last_visit_any(2), 10);
}

TEST(MapKnowledgeTest, TransitiveSecondHandSpreads) {
  // a learns from b who learned from c: c's edge reaches a.
  MapKnowledge a(kPairs4), b(kPairs4), c(kPairs4);
  const std::vector<NodeId> out{0};
  c.observe_node(3, out, 1);
  meet(b, c);
  meet(a, b);
  EXPECT_TRUE(a.knows_edge(3, 0));
}

TEST(MapKnowledgeTest, AdoptMatchesPairOracle) {
  MapKnowledge a(kPairs4), b(kPairs4);
  PairMapKnowledge a_pairs(4), b_pairs(4);
  const std::vector<NodeId> out{1, 2};
  b.observe_node(0, out, 6);
  b_pairs.observe_node(0, out, 6);
  const std::vector<NodeId> own{3};
  a.observe_node(2, own, 1);
  a_pairs.observe_node(2, own, 1);
  meet(a, b);
  meet(a_pairs, b_pairs);
  for (NodeId u = 0; u < 4; ++u) {
    EXPECT_EQ(a.last_visit_any(u), a_pairs.last_visit_any(u));
    for (NodeId v = 0; v < 4; ++v) {
      EXPECT_EQ(a.knows_edge(u, v), a_pairs.knows_edge(u, v));
      EXPECT_EQ(a.knows_edge_first_hand(u, v),
                a_pairs.knows_edge_first_hand(u, v));
    }
  }
  EXPECT_FALSE(a.knows_edge_first_hand(0, 1));
  EXPECT_EQ(a.serialized_size_bytes(), a_pairs.serialized_size_bytes());
}

// The adoption precondition: the pool must already hold the adopter's
// knowledge. A pool with fewer edges than the adopter cannot be a superset,
// and that O(1)-detectable violation aborts.
TEST(MapKnowledgeDeathTest, AdoptRequiresPoolContainingAdopter) {
  MapKnowledge a(kPairs4), b(kPairs4);
  const std::vector<NodeId> out{1, 2};
  a.observe_node(0, out, 0);
  KnowledgePool pool;
  pool.add(b);
  EXPECT_DEATH(a.adopt(pool), "assertion failed");
}

/// O(n) from-scratch reference for serialized_size_bytes().
std::size_t recounted_size(const MapKnowledge& k) {
  std::size_t visited = 0;
  for (std::int64_t t : k.any_visits())
    if (t != kNeverVisited) ++visited;
  return 8 * k.known_edge_count() + 12 * visited;
}

std::vector<std::uint8_t> state_bytes(const MapKnowledge& k) {
  snapshot::ByteWriter w;
  k.save_state(w);
  return w.take();
}

/// Random knowledge stores: each agent observes random nodes of a random
/// graph at random times and hears from random peers, with the expiry
/// clock (ttl 4) running when `ttl` is non-zero. Checks the O(1) size
/// against the recount after every mutation.
std::vector<MapKnowledge> random_stores(const EdgeIndex& index,
                                        std::size_t agents, std::size_t ttl,
                                        Rng& rng) {
  const std::size_t n = index.node_count();
  Graph g(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = 0; v < n; ++v)
      if (u != v && rng.bernoulli(0.15)) g.add_edge(u, v);
  std::vector<MapKnowledge> stores(agents, MapKnowledge(index));
  for (std::size_t t = 0; t < 12; ++t) {
    for (MapKnowledge& k : stores) {
      if (rng.bernoulli(0.6)) {
        const auto u = static_cast<NodeId>(rng.index(n));
        k.observe_node(u, g.out_neighbors(u), t);
        EXPECT_EQ(k.serialized_size_bytes(), recounted_size(k));
      }
      if (rng.bernoulli(0.2)) {
        meet(k, stores[rng.index(agents)]);
        EXPECT_EQ(k.serialized_size_bytes(), recounted_size(k));
      }
      k.expire_second_hand(t, ttl);
      EXPECT_EQ(k.serialized_size_bytes(), recounted_size(k));
    }
  }
  return stores;
}

// Pool + adopt must leave every member exactly where a chain of pairwise
// meetings with every member's pre-meeting state (own included) leaves
// it: combined words and count, visit times, first-hand state, expiry
// bookkeeping and the migration size.
TEST(MapKnowledgeAdoptionTest, PoolAndAdoptEqualsPairwiseMeetings) {
  constexpr std::size_t kNodes = 37;  // n² not a multiple of 64
  const EdgeIndex index = all_pairs(kNodes);
  KnowledgePool pool;  // reused across meetings, as in the task
  for (const std::size_t ttl : {std::size_t{0}, std::size_t{4}}) {
    for (const std::size_t group : {2u, 3u, 8u}) {
      for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(::testing::Message() << "ttl=" << ttl << " k=" << group
                                          << " seed=" << seed);
        Rng rng(seed * 97 + group);
        const std::vector<MapKnowledge> before =
            random_stores(index, group, ttl, rng);
        std::vector<MapKnowledge> adopted = before;
        pool.clear();
        for (const MapKnowledge& k : adopted) pool.add(k);
        for (MapKnowledge& k : adopted) k.adopt(pool);
        std::vector<MapKnowledge> references = before;
        for (MapKnowledge& reference : references)
          for (const MapKnowledge& peer : before) meet(reference, peer);
        for (std::size_t m = 0; m < group; ++m) {
          const MapKnowledge& reference = references[m];
          const MapKnowledge& got = adopted[m];
          EXPECT_EQ(got.combined_edges(), reference.combined_edges());
          EXPECT_EQ(got.known_edge_count(), reference.known_edge_count());
          EXPECT_TRUE(std::ranges::equal(got.any_visits(),
                                         reference.any_visits()));
          EXPECT_EQ(got.first_hand_edge_count(),
                    before[m].first_hand_edge_count());
          for (NodeId v = 0; v < kNodes; ++v)
            EXPECT_EQ(got.last_visit_first_hand(v),
                      before[m].last_visit_first_hand(v));
          EXPECT_EQ(got.serialized_size_bytes(),
                    reference.serialized_size_bytes());
          EXPECT_EQ(got.serialized_size_bytes(), recounted_size(got));
          // Whole-state bytes cover first hand and the expiry epochs.
          EXPECT_EQ(state_bytes(got), state_bytes(reference));
        }
        // Rotation after the meeting must agree too (expiry merge).
        for (std::size_t m = 0; m < group; ++m) {
          MapKnowledge reference = references[m];
          MapKnowledge got = adopted[m];
          for (std::size_t t = 12; t < 24; ++t) {
            got.expire_second_hand(t, ttl);
            reference.expire_second_hand(t, ttl);
          }
          EXPECT_EQ(state_bytes(got), state_bytes(reference));
          EXPECT_EQ(got.serialized_size_bytes(), recounted_size(got));
        }
      }
    }
  }
}

TEST(MapKnowledgeAdoptionTest, SizeSurvivesLoadState) {
  Rng rng(11);
  const EdgeIndex index = all_pairs(29);
  const std::vector<MapKnowledge> stores = random_stores(index, 3, 4, rng);
  for (const MapKnowledge& k : stores) {
    const std::vector<std::uint8_t> bytes = state_bytes(k);
    EdgeIndex fresh{Graph(29)};  // registers the pairs in load order
    MapKnowledge loaded(fresh);
    snapshot::ByteReader r(bytes.data(), bytes.size());
    loaded.load_state(r, fresh);
    EXPECT_EQ(loaded.serialized_size_bytes(), k.serialized_size_bytes());
    EXPECT_EQ(loaded.serialized_size_bytes(), recounted_size(loaded));
    EXPECT_EQ(state_bytes(loaded), bytes);
  }
}

TEST(MapKnowledgeTest, CompletenessFraction) {
  MapKnowledge k(kPairs4);
  const std::vector<NodeId> out{1, 2};
  k.observe_node(0, out, 0);
  EXPECT_DOUBLE_EQ(k.completeness(4), 0.5);
  EXPECT_DOUBLE_EQ(k.completeness(0), 1.0);
}

TEST(MapKnowledgeTest, KnownEdgeCountInIgnoresVanishedEdges) {
  MapKnowledge k(kPairs3);
  const std::vector<NodeId> out{1, 2};
  k.observe_node(0, out, 0);
  Graph truth(3);
  truth.add_edge(0, 1);  // 0→2 no longer exists
  EXPECT_EQ(k.known_edge_count_in(truth), 1u);
  EXPECT_EQ(k.known_edge_count(), 2u);
}

TEST(MapKnowledgeTest, SerializedSizeTracksContents) {
  MapKnowledge k(kPairs6);
  EXPECT_EQ(k.serialized_size_bytes(), 0u);
  const std::vector<NodeId> out{1, 2, 3};
  k.observe_node(0, out, 5);
  // 3 edges x 8 bytes + 1 visited node x 12 bytes.
  EXPECT_EQ(k.serialized_size_bytes(), 3u * 8 + 12);
  // Second-hand knowledge counts too (the agent carries it when moving).
  MapKnowledge peer(kPairs6);
  const std::vector<NodeId> peer_out{0};
  peer.observe_node(4, peer_out, 1);
  meet(k, peer);
  EXPECT_EQ(k.serialized_size_bytes(), 4u * 8 + 2 * 12);
}

// Maps over different edge indexes cannot be mixed, whether the networks
// differ in size or the indexes merely number the same network apart.
TEST(MapKnowledgeTest, SizeMismatchThrows) {
  MapKnowledge a(kPairs3), b(kPairs4);
  EXPECT_THROW(meet(a, b), ConfigError);
  const EdgeIndex other = all_pairs(4);
  MapKnowledge c(kPairs4), d(other);
  EXPECT_THROW(meet(c, d), ConfigError);
}

TEST(MapKnowledgeTest, RejectsZeroNodes) {
  const EdgeIndex empty{Graph(0)};
  EXPECT_THROW(MapKnowledge{empty}, ConfigError);
}

// Stale-knowledge expiry (resilience policy): hearsay survives the epoch
// rotation that closes its epoch and drops at the next one, so its
// effective age is in [ttl, 2*ttl). First-hand observations never expire.
TEST(MapKnowledgeExpiryTest, HearsayExpiresAfterTwoRotations) {
  MapKnowledge k(kPairs5);
  MapKnowledge peer(kPairs5);
  const std::vector<NodeId> peer_out{4};
  peer.observe_node(3, peer_out, 2);
  k.expire_second_hand(0, 10);  // first call activates the epoch clock
  meet(k, peer);                // hearsay learned inside epoch [0, 10)
  const std::vector<NodeId> own_out{1};
  k.observe_node(0, own_out, 1);  // first-hand
  EXPECT_EQ(k.known_edge_count(), 2u);
  k.expire_second_hand(9, 10);  // same epoch: nothing happens
  EXPECT_EQ(k.known_edge_count(), 2u);
  k.expire_second_hand(10, 10);  // rotation 1: hearsay still fresh enough
  EXPECT_EQ(k.known_edge_count(), 2u);
  k.expire_second_hand(20, 10);  // rotation 2: hearsay aged out
  EXPECT_EQ(k.known_edge_count(), 1u);
  EXPECT_EQ(k.first_hand_edge_count(), 1u)
      << "first-hand knowledge never expires";
}

TEST(MapKnowledgeExpiryTest, RefreshedHearsayStaysAlive) {
  MapKnowledge k(kPairs5);
  MapKnowledge peer(kPairs5);
  const std::vector<NodeId> peer_out{4};
  peer.observe_node(3, peer_out, 2);
  k.expire_second_hand(0, 10);
  meet(k, peer);
  k.expire_second_hand(10, 10);  // rotation 1
  meet(k, peer);                 // re-heard in the new epoch
  k.expire_second_hand(20, 10);  // rotation 2: refreshed copy survives
  EXPECT_EQ(k.known_edge_count(), 1u);
  k.expire_second_hand(40, 10);  // no refresh since: gone
  EXPECT_EQ(k.known_edge_count(), 0u);
}

// adopt() takes the whole pool as hearsay of the current epoch, the
// adopter's own map included: a meeting refreshes hearsay the adopter
// already held, even from a peer who knows nothing.
TEST(MapKnowledgeExpiryTest, AnyMeetingRefreshesOwnHearsay) {
  MapKnowledge k(kPairs5);
  MapKnowledge peer(kPairs5);
  const MapKnowledge empty(kPairs5);
  const std::vector<NodeId> peer_out{4};
  peer.observe_node(3, peer_out, 2);
  k.expire_second_hand(0, 10);
  meet(k, peer);                 // hearsay learned inside epoch [0, 10)
  k.expire_second_hand(10, 10);  // rotation 1
  MapKnowledge unrefreshed = k;
  meet(k, empty);                // re-marks k's own hearsay as recent
  k.expire_second_hand(20, 10);
  unrefreshed.expire_second_hand(20, 10);
  EXPECT_EQ(k.known_edge_count(), 1u);
  EXPECT_EQ(unrefreshed.known_edge_count(), 0u);
  k.expire_second_hand(30, 10);  // no meeting since: gone
  EXPECT_EQ(k.known_edge_count(), 0u);
}

TEST(MapKnowledgeExpiryTest, ZeroTtlDisablesExpiry) {
  MapKnowledge k(kPairs5);
  MapKnowledge peer(kPairs5);
  const std::vector<NodeId> peer_out{4};
  peer.observe_node(3, peer_out, 2);
  meet(k, peer);
  k.expire_second_hand(1000, 0);
  EXPECT_EQ(k.known_edge_count(), 1u) << "ttl 0 must be a no-op";
}

// ---- Equivalence with the node-pair oracle --------------------------------
//
// Seeded random sequences of observe_node, pairwise meetings, pool + adopt and
// expire_second_hand, applied in lockstep to edge-indexed stores and to
// PairMapKnowledge (the layout they replaced). A dynamic world registers the
// arcs an agent is about to sense first, serially, exactly as the mapping
// task does; a frozen world's seeded index already holds them all.

void expect_same(const MapKnowledge& got, const PairMapKnowledge& want,
                 const Graph& truth, bool every_pair) {
  const std::size_t n = got.node_count();
  ASSERT_EQ(got.first_hand_edge_count(), want.first_hand_edge_count());
  ASSERT_EQ(got.known_edge_count(), want.known_edge_count());
  ASSERT_EQ(got.known_edge_count_in(truth), want.known_edge_count_in(truth));
  ASSERT_EQ(got.serialized_size_bytes(), want.serialized_size_bytes());
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(got.last_visit_first_hand(v), want.last_visit_first_hand(v));
    ASSERT_EQ(got.last_visit_any(v), want.last_visit_any(v));
  }
  snapshot::ByteWriter w;
  want.save_state(w);
  ASSERT_EQ(state_bytes(got), w.bytes());
  if (!every_pair) return;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(got.knows_edge(u, v), want.knows_edge(u, v))
          << u << "->" << v;
      ASSERT_EQ(got.knows_edge_first_hand(u, v),
                want.knows_edge_first_hand(u, v))
          << u << "->" << v;
    }
}

/// Returns how many arcs were registered after seeding.
std::size_t drive_against_oracle(World& world, bool dynamic,
                                 std::uint64_t seed) {
  constexpr std::size_t kAgents = 6;
  constexpr std::size_t kSteps = 60;
  const std::size_t n = world.node_count();
  EdgeIndex index(world.graph());
  const std::size_t seeded = index.size();
  std::vector<MapKnowledge> stores(kAgents, MapKnowledge(index));
  std::vector<PairMapKnowledge> oracles(kAgents, PairMapKnowledge(n));
  KnowledgePool pool;
  PairKnowledgePool oracle_pool;
  Rng rng(seed);
  const std::size_t ttl = seed % 2 == 0 ? 0 : 7;
  for (std::size_t t = 0; t < kSteps; ++t) {
    if (dynamic && t > 0) world.advance();
    for (std::size_t a = 0; a < kAgents; ++a) {
      if (!rng.bernoulli(0.8)) continue;
      const auto at = static_cast<NodeId>(rng.index(n));
      const auto row = world.graph().out_neighbors(at);
      if (dynamic) index.add_row(at, row);
      stores[a].observe_node(at, row, t);
      oracles[a].observe_node(at, row, t);
    }
    if (rng.bernoulli(0.3)) {
      const std::size_t a = rng.index(kAgents);
      const std::size_t b = rng.index(kAgents);
      meet(stores[a], stores[b]);
      meet(oracles[a], oracles[b]);
    }
    if (rng.bernoulli(0.4)) {
      std::vector<std::size_t> members;
      for (std::size_t a = 0; a < kAgents; ++a)
        if (rng.bernoulli(0.5)) members.push_back(a);
      pool.clear();
      oracle_pool.clear();
      for (std::size_t a : members) {
        pool.add(stores[a]);
        oracle_pool.add(oracles[a]);
      }
      for (std::size_t a : members) {
        stores[a].adopt(pool);
        oracles[a].adopt(oracle_pool);
      }
    }
    for (std::size_t a = 0; a < kAgents; ++a) {
      stores[a].expire_second_hand(t, ttl);
      oracles[a].expire_second_hand(t, ttl);
      SCOPED_TRACE(::testing::Message() << "step " << t << " agent " << a);
      expect_same(stores[a], oracles[a], world.graph(), t % 20 == 19);
    }
  }
  // A resumed run's index registers the arcs in load order, not in the
  // order they were sensed; the restored maps must not notice.
  EdgeIndex resumed{Graph(n)};
  for (std::size_t a = 0; a < kAgents; ++a) {
    const std::vector<std::uint8_t> bytes = state_bytes(stores[a]);
    MapKnowledge loaded(resumed);
    snapshot::ByteReader r(bytes);
    loaded.load_state(r, resumed);
    expect_same(loaded, oracles[a], world.graph(), true);
  }
  return index.size() - seeded;
}

TEST(MapKnowledgeEquivalenceTest, PaperNetworkMatchesPairOracle) {
  const GeneratedNetwork net = paper_mapping_network(2010);
  for (std::uint64_t seed : {1u, 2u}) {
    World world = World::frozen(net);
    EXPECT_EQ(drive_against_oracle(world, false, seed), 0u);
  }
}

TEST(MapKnowledgeEquivalenceTest, MobileWorldMatchesPairOracle) {
  const Aabb arena{{0.0, 0.0}, {100.0, 100.0}};
  for (std::uint64_t seed : {3u, 4u}) {
    Rng rng(seed);
    constexpr std::size_t kNodes = 60;
    std::vector<Vec2> positions(kNodes);
    std::vector<bool> mobile(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i) {
      positions[i] = {100.0 * rng.uniform01(), 100.0 * rng.uniform01()};
      mobile[i] = i % 2 == 0;
    }
    World world(arena, positions, RadioModel(std::vector<double>(kNodes, 20.0), RangeScaling{1.0}),
                BatteryBank(kNodes, std::vector<bool>(kNodes, false), {}),
                std::make_unique<RandomDirectionMobility>(
                    arena, mobile,
                    RandomDirectionMobility::Params{2.0, 5.0, 0.05},
                    rng.fork(1)),
                LinkPolicy::kDirected);
    EXPECT_GT(drive_against_oracle(world, true, seed), 0u)
        << "moving nodes must show agents arcs outside the seed";
  }
}

TEST(MapKnowledgeEquivalenceTest, FlappingWorldMatchesPairOracle) {
  TargetEdgeParams params;
  params.geometry.node_count = 50;
  params.target_edges = 340;
  params.tolerance = 0.05;
  const auto net = generate_target_edge_network(params, 22);
  for (std::uint64_t seed : {5u, 6u}) {
    World world = World::frozen(net);
    world.set_link_flapper(LinkFlapper(0.2, 3, seed));
    EXPECT_GT(drive_against_oracle(world, true, seed), 0u)
        << "links down at step 0 must be registered when they return";
  }
}

}  // namespace
}  // namespace agentnet

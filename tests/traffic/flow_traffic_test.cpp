#include "traffic/flow_traffic.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "experiments/traffic_experiments.hpp"

namespace agentnet {
namespace {

// Line 0(gw)-1-2-3, fully routed toward the gateway.
struct LineWorld {
  Graph graph{4};
  RoutingTables tables{4};
  std::vector<bool> is_gateway{true, false, false, false};

  LineWorld() {
    graph.add_undirected_edge(0, 1);
    graph.add_undirected_edge(1, 2);
    graph.add_undirected_edge(2, 3);
    tables.force(1, {0, 0, 1, 0});
    tables.force(2, {1, 0, 2, 0});
    tables.force(3, {2, 0, 3, 0});
  }
};

FlowWorkloadConfig load_of(double offered) {
  FlowWorkloadConfig cfg;
  cfg.offered_load = offered;
  return cfg;
}

// A small, fast stand-in for the paper scenario used by the closed-loop
// tests below (full fidelity lives in bench/extC_packet_delivery).
RoutingScenario small_scenario() {
  RoutingScenarioParams params;
  params.node_count = 60;
  params.gateway_count = 4;
  params.trace_steps = 80;
  return RoutingScenario(params, 99);
}

TrafficTaskConfig small_task(double offered, AntReinforcement mode) {
  TrafficTaskConfig task;
  task.steps = 80;
  task.measure_from = 40;
  task.workload.offered_load = offered;
  task.ants.reinforcement = mode;
  return task;
}

TEST(FlowWorkloadConfigTest, RejectsBadConfig) {
  FlowWorkloadConfig bad;
  bad.offered_load = -0.1;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = {};
  bad.elephant_fraction = 1.5;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = {};
  bad.mice_packets = 0;
  EXPECT_THROW(bad.validate(), ConfigError);
  bad = {};
  bad.elephant_rate = 0;
  EXPECT_THROW(bad.validate(), ConfigError);

  LinkQueueConfig queue;
  queue.link_capacity = 0;
  EXPECT_THROW(queue.validate(), ConfigError);
  queue = {};
  queue.ttl = 0;
  EXPECT_THROW(queue.validate(), ConfigError);

  // The simulator validates on construction, including the mask size.
  EXPECT_THROW(FlowTrafficSimulator(4, std::vector<bool>(3, false), {}, {},
                                    Rng(1)),
               ConfigError);
}

TEST(FlowWorkloadConfigTest, RejectsLoadsThePoissonDrawCannotFinish) {
  // Rng::poisson draws in chunks of mean 16: at an infinite mean, or one
  // past 2^57, `mean -= 16` stops changing it and the draw never returns.
  const double session_packets = FlowWorkloadConfig{}.mean_session_packets();
  for (const double load :
       {std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(), 1e300,
        (FlowWorkloadConfig::kMaxSessionRate + 1.0) * session_packets}) {
    FlowWorkloadConfig cfg;
    cfg.offered_load = load;
    EXPECT_THROW(cfg.validate(), ConfigError) << load;
  }
  FlowWorkloadConfig heavy;
  heavy.offered_load =
      0.5 * FlowWorkloadConfig::kMaxSessionRate * session_packets;
  EXPECT_NO_THROW(heavy.validate());
}

TEST(FlowWorkloadConfigTest, SessionRateRealizesOfferedLoad) {
  FlowWorkloadConfig cfg;
  cfg.offered_load = 0.5;
  cfg.elephant_fraction = 0.25;
  cfg.mice_packets = 4;
  cfg.elephant_packets = 64;
  // Mean session = 0.25*64 + 0.75*4 = 19 packets; rate * mean == load, so
  // changing the mix never silently changes the offered load.
  EXPECT_DOUBLE_EQ(cfg.mean_session_packets(), 19.0);
  EXPECT_DOUBLE_EQ(cfg.session_rate() * cfg.mean_session_packets(), 0.5);
}

TEST(FlowTrafficTest, ZeroLoadStaysIdleWithUnitHopDelays) {
  LineWorld w;
  FlowTrafficSimulator sim(4, w.is_gateway, load_of(0.0), {}, Rng(1));
  for (std::size_t t = 0; t < 20; ++t) sim.step(w.graph, w.tables, t);
  EXPECT_EQ(sim.stats().generated, 0u);
  EXPECT_EQ(sim.queued(), 0u);
  // Empty queues must export *exactly* 1.0 — this is what makes zero-load
  // delay-mode ant routing bit-identical to hop-count mode.
  for (double d : sim.hop_delays()) EXPECT_EQ(d, 1.0);
}

TEST(FlowTrafficTest, DeliversOverRoutedLine) {
  LineWorld w;
  FlowTrafficSimulator sim(4, w.is_gateway, load_of(1.0), {}, Rng(2));
  for (std::size_t t = 0; t < 60; ++t) sim.step(w.graph, w.tables, t);
  sim.finish();
  const auto& s = sim.stats();
  EXPECT_GT(s.delivered, 0u);
  EXPECT_GT(s.flows_started, 0u);
  EXPECT_EQ(s.generated, s.delivered + s.dropped() + s.in_flight);
}

// One way to break the routed line, and the drop bucket it must fill.
struct DropCase {
  const char* name;
  void (*damage)(LineWorld&);
  LinkQueueConfig queue;
  std::uint64_t FlowTrafficStats::*bucket;
};

TEST(FlowTrafficTest, ConservationHoldsEveryStep) {
  const DropCase cases[] = {
      // Tight queues on a 1-packet link overflow.
      {"queue full", [](LineWorld&) {},
       {.link_capacity = 1, .queue_capacity = 4},
       &FlowTrafficStats::dropped_queue_full},
      // Node 3 never gets a route; its packets wait out their patience.
      {"no route", [](LineWorld& w) { w.tables.clear(3); },
       {.route_patience = 2}, &FlowTrafficStats::dropped_no_route},
      // Node 1 has no route and patience 0: packets reaching it drop on
      // the spot.
      {"no route, patience 0", [](LineWorld& w) { w.tables.clear(1); },
       {.route_patience = 0}, &FlowTrafficStats::dropped_no_route},
      // Node 2's route points over a link that is gone.
      {"dead link", [](LineWorld& w) { w.graph.remove_edge(2, 1); },
       {.route_patience = 1}, &FlowTrafficStats::dropped_link_down},
      // Nodes 2 and 3 route to each other; patience never fires, the hop
      // budget does.
      {"ttl",
       [](LineWorld& w) {
         w.tables.force(2, {3, 0, 1, 0});
         w.tables.force(3, {2, 0, 1, 0});
       },
       {.ttl = 4, .route_patience = 100}, &FlowTrafficStats::dropped_ttl},
  };
  for (const DropCase& c : cases) {
    SCOPED_TRACE(c.name);
    LineWorld w;
    c.damage(w);
    FlowTrafficSimulator sim(4, w.is_gateway, load_of(2.0), c.queue, Rng(3));
    for (std::size_t t = 0; t < 80; ++t) {
      sim.step(w.graph, w.tables, t);
      const auto& s = sim.stats();
      ASSERT_EQ(s.generated, s.delivered + s.dropped() + sim.queued())
          << "packets must be conserved at step " << t;
    }
    EXPECT_GT(sim.stats().*c.bucket, 0u);
  }
}

TEST(FlowTrafficTest, GeneratesAtNonGatewaysOnly) {
  // With no routes and endless patience every packet stays where it was
  // made, so the queues show the sources: the three ordinary nodes, never
  // the gateway.
  LineWorld w;
  w.tables = RoutingTables(4);
  FlowTrafficSimulator sim(4, w.is_gateway, load_of(4.0),
                           {.queue_capacity = 100000, .route_patience = 1000},
                           Rng(9));
  for (std::size_t t = 0; t < 20; ++t) sim.step(w.graph, w.tables, t);
  EXPECT_EQ(sim.stats().generated, sim.queued());
  EXPECT_EQ(sim.hop_delays()[0], 1.0);
  for (NodeId v = 1; v < 4; ++v) EXPECT_GT(sim.hop_delays()[v], 1.0) << v;

  // An all-gateway network has no sources at all.
  FlowTrafficSimulator sinks(4, std::vector<bool>(4, true), load_of(4.0), {},
                             Rng(9));
  for (std::size_t t = 0; t < 20; ++t) sinks.step(w.graph, w.tables, t);
  EXPECT_EQ(sinks.stats().generated, 0u);
  EXPECT_EQ(sinks.stats().flows_started, 0u);
}

TEST(FlowTrafficTest, LatencyAtLeastHopDistance) {
  // Packets move one hop per step, so a packet made d hops from the
  // gateway needs at least d steps. With links too wide to queue, the
  // latencies are exactly the sources' distances 1, 2 and 3.
  LineWorld w;
  FlowTrafficSimulator wide(4, w.is_gateway, load_of(1.0),
                            {.link_capacity = 1000, .queue_capacity = 100000},
                            Rng(10));
  for (std::size_t t = 0; t < 60; ++t) wide.step(w.graph, w.tables, t);
  const auto& histogram = wide.stats().latency_histogram;
  ASSERT_EQ(histogram.size(), 4u);
  EXPECT_EQ(histogram[0], 0u);
  for (std::size_t d = 1; d < 4; ++d) EXPECT_GT(histogram[d], 0u) << d;

  // Queueing only adds delay: no latency drops below one step.
  FlowTrafficSimulator narrow(4, w.is_gateway, load_of(1.0),
                              {.link_capacity = 1, .queue_capacity = 100000},
                              Rng(10));
  for (std::size_t t = 0; t < 60; ++t) narrow.step(w.graph, w.tables, t);
  ASSERT_GT(narrow.stats().delivered, 0u);
  EXPECT_EQ(narrow.stats().latency_histogram[0], 0u);
  EXPECT_GT(narrow.stats().mean_latency(), wide.stats().mean_latency());
}

TEST(FlowTrafficTest, NoRouteDropsExactlyAfterPatience) {
  // A packet with no route waits route_patience steps and is dropped on
  // the next one; with patience 0 it is dropped in the step it was made.
  LineWorld w;
  w.tables = RoutingTables(4);
  FlowTrafficSimulator sim(4, w.is_gateway, load_of(2.0),
                           {.route_patience = 2}, Rng(11));
  sim.step(w.graph, w.tables, 0);
  const std::uint64_t first_step = sim.stats().generated;
  ASSERT_GT(first_step, 0u);
  sim.step(w.graph, w.tables, 1);
  EXPECT_EQ(sim.stats().dropped_no_route, 0u);
  sim.step(w.graph, w.tables, 2);
  EXPECT_EQ(sim.stats().dropped_no_route, first_step);

  FlowTrafficSimulator impatient(4, w.is_gateway, load_of(2.0),
                                 {.route_patience = 0}, Rng(11));
  impatient.step(w.graph, w.tables, 0);
  EXPECT_EQ(impatient.stats().dropped_no_route, first_step);
  EXPECT_EQ(impatient.queued(), 0u);
}

TEST(FlowTrafficTest, LinkCapacityBoundsThroughput) {
  // Everything reaches the gateway over the one link 1 -> 0, so at most
  // link_capacity packets arrive per step, and a wider link carries more.
  LineWorld w;
  std::uint64_t delivered[2] = {};
  const std::size_t capacities[2] = {1, 8};
  for (int i = 0; i < 2; ++i) {
    const std::size_t cap = capacities[i];
    FlowTrafficSimulator sim(4, w.is_gateway, load_of(2.0),
                             {.link_capacity = cap, .queue_capacity = 100000},
                             Rng(12));
    for (std::size_t t = 0; t < 30; ++t) {
      sim.step(w.graph, w.tables, t);
      ASSERT_LE(sim.gateway_deliveries()[0], cap) << "step " << t;
    }
    delivered[i] = sim.stats().delivered;
  }
  EXPECT_GT(delivered[1], delivered[0]);
}

TEST(FlowTrafficTest, SameSeedSameStats) {
  LineWorld w;
  const auto run = [&](std::uint64_t seed) {
    FlowTrafficSimulator sim(4, w.is_gateway, load_of(0.8), {}, Rng(seed));
    for (std::size_t t = 0; t < 50; ++t) sim.step(w.graph, w.tables, t);
    sim.finish();
    return sim.stats();
  };
  EXPECT_EQ(run(13), run(13));
  EXPECT_NE(run(13), run(14));
}

TEST(FlowTrafficTest, ConservationHoldsAfterMidRunReset) {
  LineWorld w;
  FlowTrafficSimulator sim(4, w.is_gateway, load_of(1.5), {}, Rng(4));
  for (std::size_t t = 0; t < 10; ++t) sim.step(w.graph, w.tables, t);
  sim.reset_stats();
  // Packets queued at the reset are re-counted into generated, so the
  // invariant holds at every post-reset boundary.
  EXPECT_EQ(sim.stats().generated, sim.queued());
  for (std::size_t t = 10; t < 40; ++t) {
    sim.step(w.graph, w.tables, t);
    const auto& s = sim.stats();
    ASSERT_EQ(s.generated, s.delivered + s.dropped() + sim.queued())
        << "post-reset conservation must hold at step " << t;
  }
}

TEST(FlowTrafficTest, PeerToPeerSessionsDeliver) {
  LineWorld w;
  auto cfg = load_of(1.0);
  cfg.pattern = TrafficPattern::kPeerToPeer;
  FlowTrafficSimulator sim(4, w.is_gateway, cfg, {}, Rng(5));
  for (std::size_t t = 0; t < 60; ++t) sim.step(w.graph, w.tables, t);
  sim.finish();
  const auto& s = sim.stats();
  EXPECT_GT(s.delivered, 0u);
  EXPECT_EQ(s.generated, s.delivered + s.dropped() + s.in_flight);
}

TEST(FlowTrafficTest, QueueBuildupRaisesHopDelay) {
  LineWorld w;
  LinkQueueConfig queue;
  queue.link_capacity = 1;
  queue.queue_capacity = 100;
  FlowTrafficSimulator sim(4, w.is_gateway, load_of(2.0), queue, Rng(6));
  for (std::size_t t = 0; t < 30; ++t) sim.step(w.graph, w.tables, t);
  // Node 1 funnels everything toward the gateway at 1 pkt/step while ~6
  // pkts/step arrive network-wide: its queue, and hence its exported hop
  // delay 1 + queued/capacity, must have grown.
  EXPECT_GT(sim.hop_delays()[1], 1.0);
}

TEST(FlowTrafficStatsTest, LatencyQuantileIsExact) {
  FlowTrafficStats s;
  s.delivered = 10;
  s.latency_histogram = {0, 5, 3, 2};  // 5 pkts at 1 step, 3 at 2, 2 at 3
  EXPECT_EQ(s.latency_quantile(0.5), 1u);
  EXPECT_EQ(s.latency_quantile(0.8), 2u);
  EXPECT_EQ(s.latency_quantile(0.9), 3u);
  EXPECT_EQ(s.latency_quantile(1.0), 3u);
  EXPECT_EQ(s.latency_quantile(0.0), 1u);  // rank clamps to 1
  EXPECT_EQ(FlowTrafficStats{}.latency_quantile(0.99), 0u);
}

TEST(FlowTrafficStatsTest, DeliveryRatioEdgeCases) {
  FlowTrafficStats s;
  EXPECT_EQ(s.delivery_ratio(), 0.0);
  s.generated = 4;
  s.delivered = 3;
  s.dropped_ttl = 1;
  EXPECT_EQ(s.delivery_ratio(), 0.75);
  // Packets still queued count against the ratio: it is carried/offered.
  s.generated = 6;
  s.in_flight = 2;
  EXPECT_EQ(s.delivery_ratio(), 0.5);
}

TEST(FlowTrafficStatsTest, MergeIsExactAndOrderIndependent) {
  FlowTrafficStats a;
  a.delivered = 2;
  a.latency_sum = 5;
  a.latency_histogram = {0, 1, 1};
  FlowTrafficStats b;
  b.delivered = 1;
  b.dropped_ttl = 3;
  b.latency_sum = 4;
  b.latency_histogram = {0, 0, 0, 0, 1};
  FlowTrafficStats ab = a;
  ab += b;
  FlowTrafficStats ba = b;
  ba += a;
  EXPECT_EQ(ab, ba);
  EXPECT_EQ(ab.delivered, 3u);
  EXPECT_EQ(ab.dropped(), 3u);
  EXPECT_EQ(ab.latency_histogram.size(), 5u);
  EXPECT_EQ(ab.latency_quantile(1.0), 4u);
}

// At zero offered load every queue is empty, every exported hop delay is
// exactly 1.0, and a backward ant's trip time equals its hop count — so
// delay-mode reinforcement (with or without the balancer, whose bias is
// the exact identity under zero traffic) must reproduce hop-count mode
// bit for bit. This is the golden-equivalence guarantee that lets kDelay
// ship without perturbing any historical result.
TEST(TrafficTaskTest, ZeroLoadDelayModeMatchesHopCountBitForBit) {
  const RoutingScenario scenario = small_scenario();
  const auto hop = run_traffic_task(
      scenario, small_task(0.0, AntReinforcement::kHopCount), Rng(7));
  const auto delay = run_traffic_task(
      scenario, small_task(0.0, AntReinforcement::kDelay), Rng(7));
  auto balanced_task = small_task(0.0, AntReinforcement::kDelay);
  balanced_task.balance_gateways = true;
  const auto balanced = run_traffic_task(scenario, balanced_task, Rng(7));

  for (const auto* other : {&delay, &balanced}) {
    EXPECT_EQ(hop.traffic, other->traffic);
    EXPECT_EQ(hop.mean_connectivity, other->mean_connectivity);
    EXPECT_EQ(hop.ants_launched, other->ants_launched);
    EXPECT_EQ(hop.ants_completed, other->ants_completed);
    EXPECT_EQ(hop.ant_hops, other->ant_hops);
  }
  EXPECT_EQ(hop.traffic.generated, 0u);
}

TEST(TrafficTaskTest, LatencyGrowsWithOfferedLoad) {
  const RoutingScenario scenario = small_scenario();
  const auto light = run_traffic_task(
      scenario, small_task(0.05, AntReinforcement::kDelay), Rng(8));
  const auto heavy = run_traffic_task(
      scenario, small_task(0.8, AntReinforcement::kDelay), Rng(8));
  ASSERT_GT(light.traffic.delivered, 0u);
  ASSERT_GT(heavy.traffic.delivered, 0u);
  // Queueing delay is the whole point of the model: pushing ~16x the load
  // through the same links must cost latency, body and tail alike.
  EXPECT_GT(heavy.traffic.mean_latency(), light.traffic.mean_latency());
  EXPECT_GE(heavy.traffic.latency_quantile(0.95),
            light.traffic.latency_quantile(0.95));
}

TEST(TrafficExperimentTest, BitIdenticalAcrossThreadCounts) {
  const RoutingScenario scenario = small_scenario();
  const auto task = small_task(0.3, AntReinforcement::kDelay);
  const TrafficSummary t1 =
      run_traffic_experiment(scenario, task, 5, 1000, /*threads=*/1);
  for (int threads : {2, 7}) {
    const TrafficSummary tn =
        run_traffic_experiment(scenario, task, 5, 1000, threads);
    EXPECT_EQ(t1.traffic, tn.traffic) << "threads=" << threads;
    EXPECT_EQ(t1.mean_connectivity.mean(), tn.mean_connectivity.mean());
    EXPECT_EQ(t1.delivery_ratio.mean(), tn.delivery_ratio.mean());
    EXPECT_EQ(t1.offered_load.mean(), tn.offered_load.mean());
    EXPECT_EQ(t1.carried_load.mean(), tn.carried_load.mean());
  }
}

}  // namespace
}  // namespace agentnet

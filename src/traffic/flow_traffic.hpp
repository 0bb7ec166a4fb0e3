// Flow-based heavy-traffic data plane with per-link queueing delay.
//
// The one packet data plane: it carries the traffic task's load over
// ant-maintained routes and the routing task's optional traffic over the
// paper's agent tables. Real traffic arrives in sessions (a sensor burst,
// a bulk transfer), and links have finite capacity, so delay grows with
// queue occupancy. This module supplies both halves of the AntNet story
// (see docs/TRAFFIC.md):
//
//   * A workload generator: Poisson session arrivals per node, each session
//     a CBR packet train, drawn from an elephant–mice mix, addressed either
//     uplink (any gateway sinks it) or peer-to-peer. Arrivals are *counted*
//     — a queue entry is a batch {origin, dst, count, created_at, hops} —
//     so millions of packets cost thousands of batch moves.
//   * A forwarding plane with per-link capacity: each node's out-link
//     serves `link_capacity` packets per step; the excess queues, and the
//     per-hop delay 1 + queued/capacity is exported to the ants so the ACO
//     layer can reinforce by measured trip time instead of hop count.
//
// Everything is deterministic given the constructor Rng and the sequence of
// (graph, tables) steps: forwarding draws no randomness, latency is an
// exact integer histogram (mergeable across runs in run-index order, hence
// bit-identical percentiles at every AGENTNET_THREADS setting).
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/agent_parallel.hpp"
#include "common/rng.hpp"
#include "net/graph.hpp"
#include "routing/routing_table.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

/// Who a session talks to. Uplink sessions sink at whichever gateway the
/// tables reach; peer-to-peer sessions name a node (delivered on reaching
/// it directly, or on reaching any gateway, which relays over the backhaul).
enum class TrafficPattern {
  kUplink,      ///< All sessions gateway-bound.
  kPeerToPeer,  ///< All sessions node-to-node.
  kMixed,       ///< p2p_fraction of sessions are peer-to-peer.
};

/// Workload shape. The primary knob is `offered_load` (mean packets per
/// non-gateway node per step); the Poisson session-arrival rate is derived
/// from it and the mean session size, so changing the mix does not silently
/// change the load.
struct FlowWorkloadConfig {
  double offered_load = 0.1;        ///< Mean packets / node / step.
  double elephant_fraction = 0.1;   ///< P(session is an elephant).
  std::uint32_t mice_packets = 4;   ///< Mouse session size; 1 pkt / step.
  std::uint32_t elephant_packets = 64;  ///< Elephant session size.
  std::uint32_t elephant_rate = 4;  ///< Elephant emission, packets / step.
  TrafficPattern pattern = TrafficPattern::kUplink;
  double p2p_fraction = 0.2;        ///< Used only by kMixed.

  /// Mean packets per session under the current mix.
  double mean_session_packets() const;
  /// Poisson arrival rate (sessions / node / step) realizing offered_load.
  double session_rate() const;

  /// The largest session_rate() validate() accepts. Far past any link's
  /// service rate, and it keeps Rng::poisson's 16-per-chunk loop short.
  static constexpr double kMaxSessionRate = 1024.0;
  /// Rejects a non-finite or negative load, a session rate above
  /// kMaxSessionRate and out-of-range mix fields.
  void validate() const;
};

/// Forwarding-plane capacities. Each node has one out-route at a time, so
/// per-node service *is* per-link service.
struct LinkQueueConfig {
  std::size_t link_capacity = 4;    ///< Packets served / node / step.
  /// Per-node queue limit, in packets. Deep enough (64 service-steps) that
  /// congestion shows up as queueing delay rather than being censored into
  /// queue-full drops — shallow queues hide the latency tail by discarding
  /// exactly the packets that would have populated it (docs/TRAFFIC.md).
  std::size_t queue_capacity = 256;
  std::uint32_t ttl = 64;           ///< Hop budget per packet.
  std::size_t route_patience = 10;  ///< Steps a packet waits for a route.

  void validate() const;
};

/// Counters plus an exact integer latency histogram. Conservation holds at
/// every step boundary: generated == delivered + dropped() + queued packets.
struct FlowTrafficStats {
  std::uint64_t flows_started = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_no_route = 0;   ///< Patience exhausted, no route.
  std::uint64_t dropped_link_down = 0;  ///< Next hop not a live link.
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t in_flight = 0;  ///< Still queued when measurement ended.
  std::uint64_t latency_sum = 0;
  /// latency_histogram[d] = packets delivered with latency d steps.
  std::vector<std::uint64_t> latency_histogram;

  std::uint64_t dropped() const {
    return dropped_no_route + dropped_link_down + dropped_ttl +
           dropped_queue_full;
  }
  /// Delivered / generated — the headline carried/offered ratio.
  double delivery_ratio() const {
    return generated == 0
               ? 0.0
               : static_cast<double>(delivered) /
                     static_cast<double>(generated);
  }
  double mean_latency() const {
    return delivered == 0 ? 0.0
                          : static_cast<double>(latency_sum) /
                                static_cast<double>(delivered);
  }
  /// Exact q-quantile of the integer latency distribution (q in [0,1]);
  /// 0 when nothing was delivered. Independent of merge order.
  std::uint64_t latency_quantile(double q) const;

  /// Element-wise sum; used by the experiment harness's run-order merge.
  FlowTrafficStats& operator+=(const FlowTrafficStats& other);
  friend bool operator==(const FlowTrafficStats&,
                         const FlowTrafficStats&) = default;

  /// Checkpoint support.
  void save_state(snapshot::ByteWriter& w) const {
    w.u64(flows_started);
    w.u64(flows_completed);
    w.u64(generated);
    w.u64(delivered);
    w.u64(dropped_no_route);
    w.u64(dropped_link_down);
    w.u64(dropped_ttl);
    w.u64(dropped_queue_full);
    w.u64(in_flight);
    w.u64(latency_sum);
    w.pod_vec(latency_histogram);
  }
  void load_state(snapshot::ByteReader& r) {
    flows_started = r.u64();
    flows_completed = r.u64();
    generated = r.u64();
    delivered = r.u64();
    dropped_no_route = r.u64();
    dropped_link_down = r.u64();
    dropped_ttl = r.u64();
    dropped_queue_full = r.u64();
    in_flight = r.u64();
    latency_sum = r.u64();
    r.pod_vec(latency_histogram);
  }
};

/// The flow-based data plane. One instance per replication; single writer.
class FlowTrafficSimulator {
 public:
  FlowTrafficSimulator(std::size_t node_count, std::vector<bool> is_gateway,
                       FlowWorkloadConfig workload, LinkQueueConfig queue,
                       Rng rng);

  /// One step: open new sessions (Poisson), emit each active session's CBR
  /// batch, then serve every node's queue up to link_capacity packets, one
  /// hop per step over `graph` per `tables`. Refreshes hop_delays() and
  /// gateway_deliveries() for the control plane.
  void step(const Graph& graph, const RoutingTables& tables, std::size_t now);

  const FlowTrafficStats& stats() const { return stats_; }
  const FlowWorkloadConfig& workload() const { return workload_; }

  /// Packets currently queued anywhere in the network.
  std::uint64_t queued() const { return total_queued_; }

  /// Per-node hop delay from the *current* queue occupancy:
  /// 1 + queued(v) / link_capacity. Exactly 1.0 on an empty queue, which is
  /// what makes zero-load delay-mode ant routing bit-identical to hop mode.
  const std::vector<double>& hop_delays() const { return hop_delays_; }

  /// Packets delivered per gateway during the most recent step (zeros for
  /// non-gateways). Input to the gateway load balancer.
  const std::vector<std::uint64_t>& gateway_deliveries() const {
    return gateway_deliveries_;
  }

  /// Intra-run parallelism: per-node queue service fans over the agent
  /// engine (queues are disjoint per node; forwarded batches and drop
  /// records land in per-node slots replayed serially in node order, so
  /// stats, events and queue contents are bit-identical). Session opening
  /// and emission stay serial — they share the workload RNG. Inactive
  /// engine (the default) is the exact serial path.
  void set_parallel(const AgentParallel& par) { par_ = par; }

  /// Restarts measurement (e.g. at measure_from after warm-up): zeroes the
  /// stats, then counts packets still queued back into `generated` and
  /// active sessions into `flows_started`, so the conservation invariant
  /// holds from the first post-reset step.
  void reset_stats();

  /// Marks measurement end: queued packets are tallied as in_flight.
  void finish() { stats_.in_flight = total_queued_; }

  /// Checkpoint support: batch queues, per-node occupancy, hop delays,
  /// last-step gateway deliveries, active sessions, stats and RNG.
  void save_state(snapshot::ByteWriter& w) const {
    w.size(queues_.size());
    for (const auto& q : queues_) {
      w.size(q.size());
      for (const PacketBatch& b : q) {
        w.scalar(b.origin);
        w.scalar(b.dst);
        w.u64(b.count);
        w.size(b.created_at);
        w.scalar(b.hops);
        w.scalar(b.waited);
      }
    }
    w.pod_vec(queued_packets_);
    w.u64(total_queued_);
    w.pod_vec(hop_delays_);
    w.pod_vec(gateway_deliveries_);
    w.size(sessions_.size());
    for (const Session& s : sessions_) {
      w.scalar(s.origin);
      w.scalar(s.dst);
      w.u64(s.remaining);
      w.scalar(s.rate);
      w.u64(s.total);
    }
    stats_.save_state(w);
    rng_.save_state(w);
  }
  void load_state(snapshot::ByteReader& r) {
    const std::size_t n = r.counted(8);
    AGENTNET_REQUIRE(n == queues_.size(),
                     "snapshot: flow traffic queue count mismatch");
    for (auto& q : queues_) {
      const std::size_t m = r.counted(4 + 4 + 8 + 8 + 4 + 4);
      q.resize(m);
      for (PacketBatch& b : q) {
        b.origin = r.scalar<NodeId>();
        b.dst = r.scalar<NodeId>();
        b.count = r.u64();
        b.created_at = r.size();
        b.hops = r.scalar<std::uint32_t>();
        b.waited = r.scalar<std::uint32_t>();
      }
    }
    r.pod_vec(queued_packets_);
    AGENTNET_REQUIRE(queued_packets_.size() == n,
                     "snapshot: flow traffic occupancy size mismatch");
    total_queued_ = r.u64();
    r.pod_vec(hop_delays_);
    AGENTNET_REQUIRE(hop_delays_.size() == n,
                     "snapshot: flow traffic hop-delay size mismatch");
    r.pod_vec(gateway_deliveries_);
    AGENTNET_REQUIRE(gateway_deliveries_.size() == n,
                     "snapshot: flow traffic delivery size mismatch");
    sessions_.resize(r.counted(4 + 4 + 8 + 4 + 8));
    for (Session& s : sessions_) {
      s.origin = r.scalar<NodeId>();
      s.dst = r.scalar<NodeId>();
      s.remaining = r.u64();
      s.rate = r.scalar<std::uint32_t>();
      s.total = r.u64();
    }
    stats_.load_state(r);
    rng_.load_state(r);
  }

 private:
  /// A counted packet train sharing origin, destination and creation step.
  struct PacketBatch {
    NodeId origin = kInvalidNode;
    NodeId dst = kInvalidNode;  ///< kInvalidNode = uplink (any gateway).
    std::uint64_t count = 0;
    std::size_t created_at = 0;
    std::uint32_t hops = 0;
    std::uint32_t waited = 0;
  };

  /// A CBR session still emitting packets.
  struct Session {
    NodeId origin = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint64_t remaining = 0;
    std::uint32_t rate = 1;  ///< Packets emitted per step.
    std::uint64_t total = 0;
  };

  /// One node's serve outcome, recorded instead of applied so the serve
  /// pass can run in parallel: forwarded batches, ordered drop records and
  /// the number of packets that left the node's queue. Committed serially
  /// in node order — the exact sequence the serial loop produced.
  struct ServeSlot {
    struct DropRecord {
      std::uint64_t* bucket = nullptr;  ///< Stats bucket to charge.
      std::uint64_t count = 0;
    };
    std::vector<std::pair<NodeId, PacketBatch>> incoming;
    std::vector<DropRecord> drops;
    std::uint64_t dequeued = 0;
    void clear() {
      incoming.clear();
      drops.clear();
      dequeued = 0;
    }
  };

  void serve_node(NodeId v, const Graph& graph, const RoutingTables& tables,
                  std::vector<PacketBatch>& stuck, ServeSlot& slot);
  void open_sessions(std::size_t now);
  void emit_session_batches(std::size_t now);
  void enqueue(NodeId node, PacketBatch batch, std::size_t now);
  void deliver(NodeId node, const PacketBatch& batch, std::size_t now);
  void drop(NodeId node, std::uint64_t count, std::uint64_t* bucket,
            std::size_t now);
  void refresh_hop_delays();

  FlowWorkloadConfig workload_;
  LinkQueueConfig queue_;
  std::vector<bool> is_gateway_;
  std::vector<NodeId> non_gateways_;  ///< Source / p2p-destination pool.
  std::vector<std::deque<PacketBatch>> queues_;
  std::vector<std::uint64_t> queued_packets_;  ///< Per-node, in packets.
  std::uint64_t total_queued_ = 0;
  std::vector<double> hop_delays_;
  std::vector<std::uint64_t> gateway_deliveries_;
  std::vector<Session> sessions_;
  FlowTrafficStats stats_;
  Rng rng_;
  AgentParallel par_;  ///< Inactive by default; see set_parallel().
  /// step() scratch, reused across steps and not checkpointed: the
  /// forwarded batches awaiting arrival, plus the serial serve pass's stuck
  /// list and slot. The parallel pass keeps its own per-node slots.
  std::vector<std::pair<NodeId, PacketBatch>> incoming_;
  std::vector<PacketBatch> stuck_;
  ServeSlot slot_;
};

}  // namespace agentnet

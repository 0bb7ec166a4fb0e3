#include "traffic/flow_traffic.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

double FlowWorkloadConfig::mean_session_packets() const {
  return elephant_fraction * static_cast<double>(elephant_packets) +
         (1.0 - elephant_fraction) * static_cast<double>(mice_packets);
}

double FlowWorkloadConfig::session_rate() const {
  const double mean = mean_session_packets();
  return mean <= 0.0 ? 0.0 : offered_load / mean;
}

void FlowWorkloadConfig::validate() const {
  AGENTNET_REQUIRE(std::isfinite(offered_load) && offered_load >= 0.0,
                   "offered load must be finite and >= 0");
  AGENTNET_REQUIRE(elephant_fraction >= 0.0 && elephant_fraction <= 1.0,
                   "elephant fraction must be in [0,1]");
  AGENTNET_REQUIRE(mice_packets >= 1, "mice session size must be >= 1");
  AGENTNET_REQUIRE(elephant_packets >= 1,
                   "elephant session size must be >= 1");
  AGENTNET_REQUIRE(elephant_rate >= 1, "elephant rate must be >= 1");
  AGENTNET_REQUIRE(p2p_fraction >= 0.0 && p2p_fraction <= 1.0,
                   "p2p fraction must be in [0,1]");
  AGENTNET_REQUIRE(session_rate() <= kMaxSessionRate,
                   "offered load too high: more than " +
                       std::to_string(static_cast<int>(kMaxSessionRate)) +
                       " sessions per node per step");
}

void LinkQueueConfig::validate() const {
  AGENTNET_REQUIRE(link_capacity >= 1, "link capacity must be >= 1");
  AGENTNET_REQUIRE(queue_capacity >= 1, "queue capacity must be >= 1");
  AGENTNET_REQUIRE(ttl >= 1, "ttl must be >= 1");
}

std::uint64_t FlowTrafficStats::latency_quantile(double q) const {
  AGENTNET_ASSERT(q >= 0.0 && q <= 1.0);
  if (delivered == 0) return 0;
  // Every delivered packet lands in the histogram, so the shared rank
  // statistic (smallest latency whose cumulative count reaches
  // ceil(q * delivered)) gives the exact same answer it always did.
  return obs::histogram_quantile(latency_histogram, q);
}

FlowTrafficStats& FlowTrafficStats::operator+=(
    const FlowTrafficStats& other) {
  flows_started += other.flows_started;
  flows_completed += other.flows_completed;
  generated += other.generated;
  delivered += other.delivered;
  dropped_no_route += other.dropped_no_route;
  dropped_link_down += other.dropped_link_down;
  dropped_ttl += other.dropped_ttl;
  dropped_queue_full += other.dropped_queue_full;
  in_flight += other.in_flight;
  latency_sum += other.latency_sum;
  if (latency_histogram.size() < other.latency_histogram.size())
    latency_histogram.resize(other.latency_histogram.size(), 0);
  for (std::size_t i = 0; i < other.latency_histogram.size(); ++i)
    latency_histogram[i] += other.latency_histogram[i];
  return *this;
}

FlowTrafficSimulator::FlowTrafficSimulator(std::size_t node_count,
                                           std::vector<bool> is_gateway,
                                           FlowWorkloadConfig workload,
                                           LinkQueueConfig queue, Rng rng)
    : workload_(workload),
      queue_(queue),
      is_gateway_(std::move(is_gateway)),
      queues_(node_count),
      queued_packets_(node_count, 0),
      hop_delays_(node_count, 1.0),
      gateway_deliveries_(node_count, 0),
      rng_(rng) {
  AGENTNET_REQUIRE(is_gateway_.size() == node_count,
                   "gateway mask size mismatch");
  workload_.validate();
  queue_.validate();
  for (NodeId v = 0; v < node_count; ++v)
    if (!is_gateway_[v]) non_gateways_.push_back(v);
}

void FlowTrafficSimulator::open_sessions(std::size_t now) {
  const double rate = workload_.session_rate();
  if (rate <= 0.0) return;
  for (const NodeId origin : non_gateways_) {
    const std::uint64_t arrivals = rng_.poisson(rate);
    for (std::uint64_t i = 0; i < arrivals; ++i) {
      Session session;
      session.origin = origin;
      const bool elephant = rng_.bernoulli(workload_.elephant_fraction);
      session.total = elephant ? workload_.elephant_packets
                               : workload_.mice_packets;
      session.rate = elephant ? workload_.elephant_rate : 1;
      session.remaining = session.total;
      bool p2p = workload_.pattern == TrafficPattern::kPeerToPeer;
      if (workload_.pattern == TrafficPattern::kMixed)
        p2p = rng_.bernoulli(workload_.p2p_fraction);
      if (p2p && non_gateways_.size() > 1) {
        // Uniform non-gateway peer other than the origin: draw from the
        // n-1 other slots, remapping a self-hit to the last slot.
        NodeId dst = non_gateways_[rng_.index(non_gateways_.size() - 1)];
        if (dst == origin) dst = non_gateways_.back();
        session.dst = dst;
      }
      sessions_.push_back(session);
      ++stats_.flows_started;
      AGENTNET_COUNT(kFlowsStarted);
      AGENTNET_OBS_EVENT(kFlowStart, now, -1,
                         static_cast<std::int64_t>(origin),
                         session.dst == kInvalidNode
                             ? -1
                             : static_cast<std::int64_t>(session.dst));
    }
  }
}

void FlowTrafficSimulator::emit_session_batches(std::size_t now) {
  for (Session& session : sessions_) {
    const std::uint64_t emit = std::min<std::uint64_t>(session.remaining,
                                                       session.rate);
    if (emit == 0) continue;
    session.remaining -= emit;
    stats_.generated += emit;
    AGENTNET_COUNT_N(kPacketsGenerated, emit);
    PacketBatch batch;
    batch.origin = session.origin;
    batch.dst = session.dst;
    batch.count = emit;
    batch.created_at = now;
    enqueue(session.origin, batch, now);
    if (session.remaining == 0) {
      ++stats_.flows_completed;
      AGENTNET_COUNT(kFlowsCompleted);
      AGENTNET_OBS_EVENT(kFlowEnd, now, -1,
                         static_cast<std::int64_t>(session.origin),
                         static_cast<std::int64_t>(session.total));
    }
  }
  std::erase_if(sessions_,
                [](const Session& s) { return s.remaining == 0; });
}

void FlowTrafficSimulator::enqueue(NodeId node, PacketBatch batch,
                                   std::size_t now) {
  const std::uint64_t space =
      queue_.queue_capacity > queued_packets_[node]
          ? queue_.queue_capacity - queued_packets_[node]
          : 0;
  if (batch.count > space) {
    drop(node, batch.count - space, &stats_.dropped_queue_full, now);
    batch.count = space;
  }
  if (batch.count == 0) return;
  queued_packets_[node] += batch.count;
  total_queued_ += batch.count;
  queues_[node].push_back(batch);
}

void FlowTrafficSimulator::deliver(NodeId node, const PacketBatch& batch,
                                   std::size_t now) {
  const std::uint64_t latency =
      static_cast<std::uint64_t>(now - batch.created_at) + 1;
  stats_.delivered += batch.count;
  stats_.latency_sum += latency * batch.count;
  if (stats_.latency_histogram.size() <= latency)
    stats_.latency_histogram.resize(latency + 1, 0);
  stats_.latency_histogram[latency] += batch.count;
  if (is_gateway_[node]) gateway_deliveries_[node] += batch.count;
  AGENTNET_COUNT_N(kPacketsDelivered, batch.count);
}

void FlowTrafficSimulator::drop(NodeId node, std::uint64_t count,
                                std::uint64_t* bucket, std::size_t now) {
  *bucket += count;
  AGENTNET_COUNT_N(kPacketsDropped, count);
  AGENTNET_OBS_EVENT(kPacketDrop, now, -1, static_cast<std::int64_t>(node),
                     static_cast<std::int64_t>(count));
}

void FlowTrafficSimulator::refresh_hop_delays() {
  par_.for_each(queued_packets_.size(), [&](std::size_t v) {
    hop_delays_[v] = 1.0 + static_cast<double>(queued_packets_[v]) /
                               static_cast<double>(queue_.link_capacity);
  });
}

void FlowTrafficSimulator::serve_node(NodeId v, const Graph& graph,
                                      const RoutingTables& tables,
                                      std::vector<PacketBatch>& stuck,
                                      ServeSlot& slot) {
  // Serve this node's out-link: up to link_capacity packets move one hop.
  // Touches only node-local state (queues_[v], queued_packets_[v]) and the
  // slot — drops and forwarded batches are *recorded*, not applied, so the
  // serve pass can fan over the agent engine. Batches with no usable next
  // hop go to `stuck` (patience-checked) and return to the queue front in
  // order — they consume no link capacity.
  auto& queue = queues_[v];
  stuck.clear();
  std::uint64_t budget = queue_.link_capacity;
  while (budget > 0 && !queue.empty()) {
    PacketBatch batch = queue.front();
    queue.pop_front();
    // Next hop: a direct link to a p2p destination wins; otherwise the
    // agent-installed route toward a gateway (p2p traffic reaching any
    // gateway is relayed over the backhaul — see docs/TRAFFIC.md).
    const RouteEntry& route = tables.entry(v);
    NodeId next_hop = kInvalidNode;
    if (batch.dst != kInvalidNode && graph.has_edge(v, batch.dst)) {
      next_hop = batch.dst;
    } else if (route.valid() && graph.has_edge(v, route.next_hop)) {
      next_hop = route.next_hop;
    }
    if (next_hop == kInvalidNode) {
      if (++batch.waited > queue_.route_patience) {
        queued_packets_[v] -= batch.count;
        slot.dequeued += batch.count;
        slot.drops.push_back({route.valid() ? &stats_.dropped_link_down
                                            : &stats_.dropped_no_route,
                              batch.count});
      } else {
        stuck.push_back(batch);
      }
      continue;
    }
    if (batch.count > budget) {
      // Split: the head of the train crosses, the tail keeps the queue
      // slot (same creation step, so latency stays exact).
      PacketBatch tail = batch;
      tail.count = batch.count - budget;
      queue.push_front(tail);
      batch.count = budget;
    }
    budget -= batch.count;
    queued_packets_[v] -= batch.count;
    slot.dequeued += batch.count;
    batch.waited = 0;
    if (++batch.hops > queue_.ttl) {
      slot.drops.push_back({&stats_.dropped_ttl, batch.count});
      continue;
    }
    slot.incoming.emplace_back(next_hop, batch);
  }
  for (auto it = stuck.rbegin(); it != stuck.rend(); ++it)
    queue.push_front(*it);
}

void FlowTrafficSimulator::step(const Graph& graph,
                                const RoutingTables& tables,
                                std::size_t now) {
  AGENTNET_REQUIRE(graph.node_count() == queues_.size(),
                   "graph size does not match traffic simulator");
  AGENTNET_REQUIRE(tables.size() == queues_.size(),
                   "tables size does not match traffic simulator");
  const std::size_t n = queues_.size();

  std::fill(gateway_deliveries_.begin(), gateway_deliveries_.end(), 0);
  open_sessions(now);
  emit_session_batches(now);

  // Serve pass: batches forwarded this step land in `incoming_` and only
  // join queues / sinks afterwards, so a packet moves at most one hop per
  // step. Each node's slot is committed — drop stats, drop events and the
  // global occupancy — serially in node order, reproducing the serial
  // loop's exact event sequence and arrival order.
  incoming_.clear();
  const auto commit_slot = [&](NodeId v, ServeSlot& slot) {
    for (const ServeSlot::DropRecord& record : slot.drops)
      drop(v, record.count, record.bucket, now);
    total_queued_ -= slot.dequeued;
    incoming_.insert(incoming_.end(),
                     std::make_move_iterator(slot.incoming.begin()),
                     std::make_move_iterator(slot.incoming.end()));
  };
  if (par_.active() && n >= 2) {
    std::vector<ServeSlot> slots(n);
    par_.for_each_scratch(
        n, [] { return std::vector<PacketBatch>(); },
        [&](std::size_t v, std::vector<PacketBatch>& stuck) {
          serve_node(static_cast<NodeId>(v), graph, tables, stuck, slots[v]);
        });
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v)
      commit_slot(v, slots[v]);
  } else {
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      serve_node(v, graph, tables, stuck_, slot_);
      commit_slot(v, slot_);
      slot_.clear();
    }
  }

  for (auto& [node, batch] : incoming_) {
    if ((batch.dst != kInvalidNode && node == batch.dst) ||
        is_gateway_[node]) {
      deliver(node, batch, now);
    } else {
      enqueue(node, batch, now);
    }
  }
  refresh_hop_delays();
}

void FlowTrafficSimulator::reset_stats() {
  stats_ = {};
  // Packets already queued will later be delivered or dropped, so count
  // them as generated now — conservation (generated == delivered +
  // dropped + queued) then holds at every post-reset step boundary.
  stats_.generated = total_queued_;
  stats_.flows_started = sessions_.size();
}

}  // namespace agentnet

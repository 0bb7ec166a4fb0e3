// Per-node routing tables maintained exclusively by mobile agents.
//
// The paper: "Every node has a simple routing table which agents update
// frequently. The nodes themselves run no programs; all topology mapping
// relies on the operation of the agents." A table holds the node's current
// best route toward *some* gateway (next hop + hop estimate + install time);
// agents offer candidate routes and the table keeps the better one.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

struct RouteEntry {
  NodeId next_hop = kInvalidNode;
  NodeId gateway = kInvalidNode;
  std::uint32_t hops = 0;          ///< Estimated hops to `gateway`.
  std::size_t installed_at = 0;    ///< Simulation step of installation.

  bool valid() const { return next_hop != kInvalidNode; }
  friend bool operator==(const RouteEntry&, const RouteEntry&) = default;
};

/// Route-replacement policy knobs.
struct RoutePolicy {
  /// An entry older than this many steps is considered stale: any fresh
  /// candidate beats it regardless of hop count. In a mobile network old
  /// routes rot as links break, so freshness dominates eventually.
  std::size_t freshness_window = 30;
};

class RoutingTables {
 public:
  RoutingTables(std::size_t node_count, RoutePolicy policy = {});

  std::size_t size() const { return entries_.size(); }
  const RouteEntry& entry(NodeId node) const;
  /// The full per-node entry array (epoch-keyed caches compare it to
  /// detect table changes between measurements).
  const std::vector<RouteEntry>& entries() const { return entries_; }
  const RoutePolicy& policy() const { return policy_; }

  /// Offers a candidate route for `node` at time `now`; keeps the better of
  /// (existing, candidate) per the policy. Returns true when the candidate
  /// was installed.
  bool offer(NodeId node, const RouteEntry& candidate, std::size_t now);

  /// Unconditionally installs (tests / oracle seeding).
  void force(NodeId node, const RouteEntry& entry);
  void clear(NodeId node);

  bool is_stale(const RouteEntry& entry, std::size_t now) const {
    return !entry.valid() || now - entry.installed_at > policy_.freshness_window;
  }

  /// Checkpoint support: every entry; the policy is config-derived.
  void save_state(snapshot::ByteWriter& w) const {
    w.size(entries_.size());
    for (const RouteEntry& e : entries_) {
      w.scalar(e.next_hop);
      w.scalar(e.gateway);
      w.scalar(e.hops);
      w.size(e.installed_at);
    }
  }
  void load_state(snapshot::ByteReader& r) {
    const std::size_t n = r.counted(4 * 8);
    AGENTNET_REQUIRE(n == entries_.size(),
                     "snapshot: routing table size mismatch");
    for (RouteEntry& e : entries_) {
      e.next_hop = r.scalar<NodeId>();
      e.gateway = r.scalar<NodeId>();
      e.hops = r.scalar<std::uint32_t>();
      e.installed_at = r.size();
    }
  }

 private:
  std::vector<RouteEntry> entries_;
  RoutePolicy policy_;
};

}  // namespace agentnet

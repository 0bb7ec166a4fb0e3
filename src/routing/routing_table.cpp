#include "routing/routing_table.hpp"

#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

RoutingTables::RoutingTables(std::size_t node_count, RoutePolicy policy)
    : entries_(node_count), policy_(policy) {
  AGENTNET_REQUIRE(policy.freshness_window > 0,
                   "freshness window must be > 0");
}

const RouteEntry& RoutingTables::entry(NodeId node) const {
  AGENTNET_ASSERT(node < entries_.size());
  return entries_[node];
}

bool RoutingTables::offer(NodeId node, const RouteEntry& candidate,
                          std::size_t now) {
  AGENTNET_ASSERT(node < entries_.size());
  AGENTNET_REQUIRE(candidate.valid(), "cannot offer an invalid route");
  RouteEntry& current = entries_[node];
  bool install = false;
  if (!current.valid()) {
    install = true;
  } else if (is_stale(current, now)) {
    // A rotten route loses to anything fresh.
    install = true;
  } else if (candidate.hops < current.hops) {
    install = true;
  } else if (candidate.hops == current.hops &&
             candidate.installed_at >= current.installed_at) {
    install = true;  // same length, fresher timestamp
  }
  if (install) {
    current = candidate;
    AGENTNET_COUNT(kRouteTableUpdates);
  }
  return install;
}

void RoutingTables::force(NodeId node, const RouteEntry& entry) {
  AGENTNET_ASSERT(node < entries_.size());
  entries_[node] = entry;
}

void RoutingTables::clear(NodeId node) {
  AGENTNET_ASSERT(node < entries_.size());
  entries_[node] = RouteEntry{};
}

}  // namespace agentnet

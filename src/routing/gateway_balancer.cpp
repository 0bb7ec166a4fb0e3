#include "routing/gateway_balancer.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace agentnet {

void GatewayBalancerConfig::validate() const {
  AGENTNET_REQUIRE(smoothing > 0.0 && smoothing <= 1.0,
                   "balancer smoothing must be in (0,1]");
  AGENTNET_REQUIRE(strength >= 0.0, "balancer strength must be >= 0");
}

GatewayBalancer::GatewayBalancer(std::size_t node_count,
                                 std::vector<bool> is_gateway,
                                 GatewayBalancerConfig config)
    : config_(config),
      is_gateway_(std::move(is_gateway)),
      load_(node_count, 0.0),
      bias_(node_count, 1.0) {
  AGENTNET_REQUIRE(is_gateway_.size() == node_count,
                   "gateway mask size mismatch");
  config_.validate();
  for (NodeId v = 0; v < node_count; ++v)
    if (is_gateway_[v]) ++gateway_count_;
}

void GatewayBalancer::observe(std::span<const std::uint64_t> deliveries) {
  AGENTNET_REQUIRE(deliveries.size() == load_.size(),
                   "deliveries span size mismatch");
  double total = 0.0;
  for (std::size_t v = 0; v < load_.size(); ++v) {
    if (!is_gateway_[v]) continue;
    load_[v] = (1.0 - config_.smoothing) * load_[v] +
               config_.smoothing * static_cast<double>(deliveries[v]);
    total += load_[v];
  }
  // No observed traffic (or no gateways, or strength 0): bias is the exact
  // multiplicative identity, so deposits are bit-identical to unbalanced.
  if (total <= 0.0 || gateway_count_ == 0 || config_.strength == 0.0) {
    for (std::size_t v = 0; v < bias_.size(); ++v) bias_[v] = 1.0;
    return;
  }
  const double mean = total / static_cast<double>(gateway_count_);
  for (std::size_t v = 0; v < bias_.size(); ++v) {
    if (!is_gateway_[v]) {
      bias_[v] = 1.0;
      continue;
    }
    // In (0, 2^strength]; 1.0 exactly at load == mean.
    const double ratio = 2.0 * mean / (load_[v] + mean);
    bias_[v] = config_.strength == 1.0 ? ratio
                                       : std::pow(ratio, config_.strength);
  }
}

}  // namespace agentnet

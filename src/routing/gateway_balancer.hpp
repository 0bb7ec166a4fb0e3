// Gateway load balancing for the stigmergetic control plane.
//
// The paper's networks have several gateways, and the routing layers send
// every packet toward *some* gateway — nothing stops the pheromone field
// from funnelling a whole region onto one of them while its neighbours sit
// idle. The balancer watches per-gateway delivered traffic (an EWMA of
// FlowTrafficSimulator::gateway_deliveries()) and produces a per-gateway
// deposit multiplier: underloaded gateways get bias > 1, overloaded ones
// bias < 1, so backward ants gradually steer new traffic toward spare
// capacity. The bias is exactly 1.0 everywhere while no traffic has been
// observed, which keeps zero-load runs bit-identical to unbalanced ones
// (see docs/TRAFFIC.md).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/graph.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

struct GatewayBalancerConfig {
  /// EWMA factor per step: load ← (1-smoothing)·load + smoothing·delivered.
  double smoothing = 0.1;
  /// Bias exponent; 0 disables balancing (bias ≡ 1), 1 is proportional.
  double strength = 1.0;

  void validate() const;
};

class GatewayBalancer {
 public:
  GatewayBalancer(std::size_t node_count, std::vector<bool> is_gateway,
                  GatewayBalancerConfig config);

  /// Folds one step's per-node delivered counts (zeros for non-gateways)
  /// into the load EWMA and recomputes the bias vector.
  void observe(std::span<const std::uint64_t> deliveries);

  /// Per-node deposit multiplier, ((mean + load_g) in the denominator
  /// bounds it to (0, 2^strength]):
  ///   bias[g] = (2·mean / (load[g] + mean))^strength
  /// Exactly 1.0 for every node while the mean load is zero, and 1.0 at
  /// gateways carrying exactly the mean load.
  const std::vector<double>& bias() const { return bias_; }

  /// Smoothed per-node delivered load (non-gateways stay 0).
  const std::vector<double>& load() const { return load_; }

  /// Checkpoint support: the EWMA state and derived bias vector; config
  /// and gateway mask are reconstructed from the task config.
  void save_state(snapshot::ByteWriter& w) const {
    w.pod_vec(load_);
    w.pod_vec(bias_);
  }
  void load_state(snapshot::ByteReader& r) {
    r.pod_vec(load_);
    r.pod_vec(bias_);
    AGENTNET_REQUIRE(load_.size() == is_gateway_.size() &&
                         bias_.size() == is_gateway_.size(),
                     "snapshot: balancer size mismatch");
  }

 private:
  GatewayBalancerConfig config_;
  std::vector<bool> is_gateway_;
  std::size_t gateway_count_ = 0;
  std::vector<double> load_;
  std::vector<double> bias_;
};

}  // namespace agentnet

// Umbrella header: the whole public API of agentnet.
//
//   #include "agentnet.hpp"
//
// Layering (each header can also be included individually):
//   common/   rng, stats, tables, options, env, errors
//   geom/     2-D vectors, spatial hash grid
//   energy/   battery models
//   radio/    range models (heterogeneous, battery-scaled)
//   mobility/ stationary, random-direction, recorded traces
//   net/      directed graph, topology builder, generators, metrics
//   sim/      the simulated World
//   fault/    deterministic fault injection + resilience (watchdog)
//   routing/  routing tables, connectivity metrics, gateway balancing
//   traffic/  the flow data plane: session traffic over agent- or
//             ant-maintained routes (docs/TRAFFIC.md)
//   core/     the paper's agents and tasks (mapping + dynamic routing)
//   aco/      ant-colony routing baseline (AntHocNet-style, ref [9])
//   adv/      distance-vector-carrying agent baseline (refs [10][11])
//   flooding/ link-state flooding baseline for mapping
//   io/       save/load, DOT and CSV export
//   experiments/ multi-run harness and paper constants
#pragma once

#include "aco/ant_routing.hpp"
#include "aco/ant_routing_task.hpp"
#include "adv/dv_agent.hpp"
#include "common/compare.hpp"
#include "common/dense_bitset.hpp"
#include "common/env.hpp"
#include "common/error.hpp"
#include "common/fork_join.hpp"
#include "common/options.hpp"
#include "common/parallel_for.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "core/map_knowledge.hpp"
#include "core/mapping_agent.hpp"
#include "core/mapping_task.hpp"
#include "core/routing_agent.hpp"
#include "core/routing_task.hpp"
#include "core/selection.hpp"
#include "core/stigmergy.hpp"
#include "energy/battery.hpp"
#include "experiments/mapping_experiments.hpp"
#include "experiments/paper.hpp"
#include "experiments/replicate.hpp"
#include "experiments/routing_experiments.hpp"
#include "experiments/traffic_experiments.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/watchdog.hpp"
#include "flooding/link_state.hpp"
#include "geom/spatial_grid.hpp"
#include "geom/vec2.hpp"
#include "io/network_io.hpp"
#include "io/scenario_io.hpp"
#include "mobility/mobility.hpp"
#include "net/generators.hpp"
#include "net/graph.hpp"
#include "net/link_noise.hpp"
#include "net/metrics.hpp"
#include "net/topology.hpp"
#include "radio/range_model.hpp"
#include "routing/connectivity.hpp"
#include "routing/gateway_balancer.hpp"
#include "routing/routing_table.hpp"
#include "sim/world.hpp"
#include "traffic/flow_traffic.hpp"

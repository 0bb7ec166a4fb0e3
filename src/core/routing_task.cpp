#include "core/routing_task.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "core/colocation.hpp"
#include "obs/obs.hpp"

namespace agentnet {

const char* to_string(GatewayPlacement placement) {
  switch (placement) {
    case GatewayPlacement::kRandom:
      return "random";
    case GatewayPlacement::kSpread:
      return "spread";
    case GatewayPlacement::kPerimeter:
      return "perimeter";
  }
  return "?";
}

namespace {

/// Marks the node nearest each anchor as a gateway (skipping nodes already
/// chosen), so placement strategies reduce to choosing anchor points.
std::vector<bool> gateways_near_anchors(const std::vector<Vec2>& positions,
                                        const std::vector<Vec2>& anchors) {
  std::vector<bool> mask(positions.size(), false);
  for (const Vec2& anchor : anchors) {
    std::size_t best = positions.size();
    double best_d2 = 0.0;
    for (std::size_t i = 0; i < positions.size(); ++i) {
      if (mask[i]) continue;
      const double d2 = distance2(anchor, positions[i]);
      if (best == positions.size() || d2 < best_d2) {
        best = i;
        best_d2 = d2;
      }
    }
    AGENTNET_ASSERT(best < positions.size());
    mask[best] = true;
  }
  return mask;
}

std::vector<bool> place_gateways(const RoutingScenarioParams& params,
                                 const std::vector<Vec2>& positions,
                                 Rng& rng) {
  const std::size_t n = positions.size();
  const std::size_t k = params.gateway_count;
  switch (params.gateway_placement) {
    case GatewayPlacement::kRandom: {
      std::vector<bool> mask(n, false);
      for (std::size_t idx : rng.sample_indices(n, k)) mask[idx] = true;
      return mask;
    }
    case GatewayPlacement::kSpread: {
      // Anchors at the centres of the first k cells of the tightest grid
      // that holds them (row-major).
      const auto cols = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(k))));
      const std::size_t rows = (k + cols - 1) / cols;
      std::vector<Vec2> anchors;
      for (std::size_t g = 0; g < k; ++g) {
        const std::size_t cx = g % cols;
        const std::size_t cy = g / cols;
        anchors.push_back(
            {params.bounds.lo.x +
                 (static_cast<double>(cx) + 0.5) * params.bounds.width() /
                     static_cast<double>(cols),
             params.bounds.lo.y +
                 (static_cast<double>(cy) + 0.5) * params.bounds.height() /
                     static_cast<double>(rows)});
      }
      return gateways_near_anchors(positions, anchors);
    }
    case GatewayPlacement::kPerimeter: {
      // Evenly spaced points along the boundary rectangle.
      const double perimeter =
          2.0 * (params.bounds.width() + params.bounds.height());
      std::vector<Vec2> anchors;
      for (std::size_t g = 0; g < k; ++g) {
        double s = perimeter * static_cast<double>(g) /
                   static_cast<double>(k);
        Vec2 p = params.bounds.lo;
        if (s < params.bounds.width()) {
          p = {params.bounds.lo.x + s, params.bounds.lo.y};
        } else if ((s -= params.bounds.width()) < params.bounds.height()) {
          p = {params.bounds.hi.x, params.bounds.lo.y + s};
        } else if ((s -= params.bounds.height()) < params.bounds.width()) {
          p = {params.bounds.hi.x - s, params.bounds.hi.y};
        } else {
          s -= params.bounds.width();
          p = {params.bounds.lo.x, params.bounds.hi.y - s};
        }
        anchors.push_back(p);
      }
      return gateways_near_anchors(positions, anchors);
    }
  }
  AGENTNET_ASSERT_MSG(false, "unknown gateway placement");
  return {};
}

}  // namespace

RoutingScenario::RoutingScenario(RoutingScenarioParams params,
                                 std::uint64_t seed)
    : params_(params) {
  AGENTNET_REQUIRE(params.node_count >= 2, "need at least two nodes");
  AGENTNET_REQUIRE(params.gateway_count >= 1 &&
                       params.gateway_count < params.node_count,
                   "gateway count must be in [1, node_count)");
  AGENTNET_REQUIRE(params.mobile_fraction >= 0.0 &&
                       params.mobile_fraction <= 1.0,
                   "mobile fraction must be in [0,1]");
  const std::size_t n = params.node_count;
  Rng rng(seed);

  initial_positions_ = random_positions(n, params.bounds, rng);

  // Gateways per the placement strategy; mobile nodes a random subset of
  // the rest.
  is_gateway_ = place_gateways(params, initial_positions_, rng);
  std::vector<std::size_t> ordinary;
  for (std::size_t i = 0; i < n; ++i)
    if (!is_gateway_[i]) ordinary.push_back(i);
  const auto mobile_count = static_cast<std::size_t>(
      params.mobile_fraction * static_cast<double>(n) + 0.5);
  AGENTNET_REQUIRE(mobile_count <= ordinary.size(),
                   "mobile fraction leaves too few stationary slots for "
                   "gateways");
  mobile_.assign(n, false);
  for (std::size_t k : rng.sample_indices(ordinary.size(), mobile_count))
    mobile_[ordinary[k]] = true;

  base_ranges_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double spread = rng.uniform_real(1.0 - params.range_spread,
                                           1.0 + params.range_spread);
    base_ranges_[i] = params.node_range * spread *
                      (is_gateway_[i] ? params.gateway_range_boost : 1.0);
  }

  RandomDirectionMobility recorder(params.bounds, mobile_, params.movement,
                                   rng.fork(0xD0));
  trace_ = TraceMobility::record(recorder, initial_positions_,
                                 params.trace_steps);
  validate();
}

RoutingScenario::RoutingScenario(RoutingScenarioParams params,
                                 std::vector<Vec2> initial_positions,
                                 std::vector<double> base_ranges,
                                 std::vector<bool> is_gateway,
                                 std::vector<bool> mobile,
                                 TraceMobility trace)
    : params_(params),
      initial_positions_(std::move(initial_positions)),
      base_ranges_(std::move(base_ranges)),
      is_gateway_(std::move(is_gateway)),
      mobile_(std::move(mobile)),
      trace_(std::move(trace)) {
  validate();
}

void RoutingScenario::validate() const {
  const std::size_t n = params_.node_count;
  AGENTNET_REQUIRE(initial_positions_.size() == n &&
                       base_ranges_.size() == n &&
                       is_gateway_.size() == n && mobile_.size() == n,
                   "scenario part sizes must match node_count");
  std::size_t gateways = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_gateway_[i]) {
      ++gateways;
      AGENTNET_REQUIRE(!mobile_[i], "gateways must be stationary");
    }
    AGENTNET_REQUIRE(base_ranges_[i] > 0.0, "ranges must be positive");
  }
  AGENTNET_REQUIRE(gateways == params_.gateway_count,
                   "gateway mask does not match gateway_count");
  AGENTNET_REQUIRE(trace_.node_count() == n,
                   "trace node count must match node_count");
  AGENTNET_REQUIRE(trace_.initial() == initial_positions_,
                   "trace must start from the initial positions");
  for (std::size_t i = 0; i < n; ++i)
    AGENTNET_REQUIRE(trace_.is_stationary(i) == !mobile_[i],
                     "trace stationary mask must be the complement of the "
                     "mobile mask");
}

World RoutingScenario::make_world(const WorldScript* script) const {
  // Shares the recording; the copy's cursor starts at frame zero.
  auto playback = std::make_unique<TraceMobility>(trace_);
  playback->reset();
  // Mobile nodes run on battery; stationary nodes (gateways included) are
  // mains powered.
  BatteryBank batteries(params_.node_count, mobile_, params_.battery);
  World world(params_.bounds, initial_positions_,
              RadioModel(base_ranges_, params_.scaling), std::move(batteries),
              std::move(playback), params_.policy);
  world.set_script(script);
  return world;
}

ScenarioScript::ScenarioScript(const RoutingScenario& scenario,
                               std::size_t steps, bool oracle) {
  World live = scenario.make_world();
  OracleConnectivityCache cache;
  if (oracle) this->oracle.reserve(steps);
  world = WorldScript::record(live, steps, [&](const World& w) {
    if (oracle)
      this->oracle.push_back(
          cache.measure(w.epoch(), w.graph(), scenario.is_gateway()));
  });
}

namespace {

/// Checkpoint tag in front of the traffic state; 0 = traffic off. Tag 1
/// marked the state of the Bernoulli simulator the flow plane replaced, so
/// the flow plane's state takes a new tag: an old traffic-on checkpoint is
/// refused rather than misparsed.
constexpr std::uint8_t kFlowTrafficTag = 2;

}  // namespace

RoutingTaskResult run_routing_task(const RoutingScenario& scenario,
                                   const RoutingTaskConfig& config, Rng rng) {
  AGENTNET_REQUIRE(config.population >= 1, "population must be >= 1");
  AGENTNET_REQUIRE(config.measure_from < config.steps,
                   "measure_from must precede steps");
  TaskLoop loop(config);
  World world =
      scenario.make_world(config.script ? &config.script->world : nullptr);
  world.set_team(loop.par().team());
  const std::size_t n = world.node_count();
  const auto& is_gateway = scenario.is_gateway();

  RoutingTables tables(n, config.route_policy);
  StigmergyBoard board(n, config.stigmergy_horizon,
                       config.stigmergy_capacity);

  const std::vector<RoutingAgentConfig> roster =
      config.team.empty()
          ? std::vector<RoutingAgentConfig>(
                static_cast<std::size_t>(config.population), config.agent)
          : config.team;
  std::vector<RoutingAgent> agents;
  agents.reserve(roster.size());
  for (std::size_t a = 0; a < roster.size(); ++a) {
    const NodeId start = static_cast<NodeId>(rng.index(n));
    agents.emplace_back(static_cast<int>(a), start, roster[a],
                        rng.fork(static_cast<std::uint64_t>(a) + 1));
    AGENTNET_OBS_EVENT(kSpawn, 0, static_cast<std::int64_t>(a),
                       static_cast<std::int64_t>(start));
  }
  const bool any_communicates = [&] {
    for (const auto& cfg : roster)
      if (cfg.communicate) return true;
    return false;
  }();

  const FaultPlan& plan = loop.plan();

  RoutingTaskResult result;
  result.connectivity.reserve(config.steps);
  std::vector<std::size_t> decide_order;
  // Meeting-exchange scratch, reused across meetings and steps (the
  // parallel exchange path builds per-worker scratch instead).
  FlatMap<NodeId, std::size_t> pooled;
  // The intra-run agent engine. Recovery paths can change the live mix of
  // configs (watchdog uses the roster, gateway respawn the homogeneous
  // template), so the stigmergy gate for the decide phase checks the live
  // team each step.
  const AgentParallel& par = loop.par();
  std::vector<MeetingPlan> meetings;

  std::optional<FlowTrafficSimulator> traffic;
  if (config.traffic)
    traffic.emplace(n, is_gateway, FlowWorkloadConfig{}, LinkQueueConfig{},
                    rng.fork(0x7AFF1C));

  loop.fork_faults(rng, FaultFork::kAlways);
  FaultInjector& injector = *loop.injector();
  // Epoch-keyed oracle cache: when the edge set (world epoch) did not
  // change since the last step, the walk is skipped and the stored result
  // re-emitted bit-identically.
  OracleConnectivityCache oracle_cache;
  AgentSlots slots(roster.size(), plan.watchdog_ttl);
  std::vector<NodeId> gateway_nodes;
  for (NodeId v = 0; v < n; ++v)
    if (is_gateway[v]) gateway_nodes.push_back(v);
  // Respawned replacements use the homogeneous template (config.agent);
  // the population target is the initial team size.
  const std::size_t target_population = roster.size();

  // Checkpoint/restore: everything the loop evolves, in a fixed order.
  // Config-derived data (scenario, roster, gateway masks) is rebuilt by the
  // setup above and not carried; each agent's config IS carried because a
  // live agent's template depends on its recovery history, not its slot.
  const auto save_run = [&](snapshot::ByteWriter& w) {
    rng.save_state(w);
    world.save_state(w);
    tables.save_state(w);
    board.save_state(w);
    loop.save_faults(w);
    loop.save_cache(w);
    oracle_cache.save_state(w);
    slots.save_state(w);
    w.size(agents.size());
    for (const RoutingAgent& agent : agents) {
      const RoutingAgentConfig& ac = agent.config();
      w.scalar(ac.policy);
      w.size(ac.history_size);
      w.boolean(ac.communicate);
      w.scalar(ac.stigmergy);
      agent.save_state(w);
    }
    w.u8(traffic ? kFlowTrafficTag : 0);
    if (traffic) traffic->save_state(w);
    w.pod_vec(result.connectivity);
    w.pod_vec(result.oracle);
    w.size(result.migration_bytes);
    w.size(result.agents_lost);
    w.size(result.agents_respawned);
  };
  const auto load_run = [&](snapshot::ByteReader& r) {
    rng.load_state(r);
    world.load_state(r);
    tables.load_state(r);
    board.load_state(r);
    loop.load_faults(r);
    loop.load_cache(r);
    oracle_cache.load_state(r);
    slots.load_state(r);
    const std::size_t live = r.counted(8);
    AGENTNET_REQUIRE(live == slots.slots().size(),
                     "snapshot: roster slot map size mismatch");
    agents.clear();
    agents.reserve(live);
    for (std::size_t i = 0; i < live; ++i) {
      RoutingAgentConfig ac;
      ac.policy = r.scalar<RoutingPolicy>();
      AGENTNET_REQUIRE(ac.policy <= RoutingPolicy::kOldestNode,
                       "snapshot: bad routing policy");
      ac.history_size = r.size();
      ac.communicate = r.boolean();
      ac.stigmergy = r.scalar<StigmergyMode>();
      AGENTNET_REQUIRE(ac.stigmergy <= StigmergyMode::kTieBreak,
                       "snapshot: bad stigmergy mode");
      agents.emplace_back(0, NodeId{0}, ac, Rng(0));
      agents.back().load_state(r);
    }
    AGENTNET_REQUIRE(r.u8() == (traffic ? kFlowTrafficTag : 0),
                     "snapshot: traffic configuration mismatch");
    if (traffic) traffic->load_state(r);
    r.pod_vec(result.connectivity);
    r.pod_vec(result.oracle);
    result.migration_bytes = r.size();
    result.agents_lost = r.size();
    result.agents_respawned = r.size();
  };

  loop.run(world, config.steps, save_run, load_run, [&](std::size_t t) {
    AGENTNET_OBS_PHASE(kStep);
    // Refresh the topology-fault mask for this step. Without topology
    // faults this returns immediately; with them it is cached, so the
    // decide phase below reuses the same mask.
    const Graph& live = loop.live_graph(world, world.step());

    // Phase 0a: watchdog recovery — roster slots silent for more than the
    // TTL are declared dead; any agent still occupying one is scrapped
    // (it is wedged or stranded) and a replacement launches at a live
    // gateway.
    const std::vector<std::size_t> dead_slots =
        slots.reap_expired(agents, t, result.agents_lost);
    if (!dead_slots.empty()) {
      std::vector<NodeId> live_gateways;
      for (NodeId gw : gateway_nodes)
        if (!injector.down(gw)) live_gateways.push_back(gw);
      for (std::size_t slot : dead_slots) {
        if (live_gateways.empty()) break;  // every gateway down: retry
        const NodeId at = live_gateways[injector.pick(live_gateways.size())];
        const int id = slots.launch(slot, t);
        agents.emplace_back(id, at, roster[slot],
                            rng.fork(static_cast<std::uint64_t>(id) + 1));
        AGENTNET_COUNT(kWatchdogRespawns);
        AGENTNET_OBS_EVENT(kWatchdogRespawn, t, id,
                           static_cast<std::int64_t>(at));
        ++result.agents_respawned;
      }
    }

    // Phase 0b: recovery — gateways (the nodes wired to the outside world)
    // launch replacement agents while the team is under strength. A
    // crashed gateway launches nothing.
    if (plan.gateway_respawn_probability > 0.0) {
      for (NodeId gw : gateway_nodes) {
        if (agents.size() >= target_population) break;
        if (injector.down(gw)) continue;
        if (injector.respawn_due()) {
          std::vector<char> occupied(roster.size(), 0);
          for (std::size_t s : slots.slots()) occupied[s] = 1;
          std::size_t vacant = 0;
          while (vacant < roster.size() && occupied[vacant]) ++vacant;
          AGENTNET_ASSERT(vacant < roster.size());
          const int id = slots.launch(vacant, t);
          agents.emplace_back(id, gw, config.agent,
                              rng.fork(static_cast<std::uint64_t>(id) + 1));
          AGENTNET_COUNT(kAgentsRespawned);
          AGENTNET_OBS_EVENT(kRespawn, t, id, static_cast<std::int64_t>(gw));
          ++result.agents_respawned;
        }
      }
    }

    // Phase 1: arrival bookkeeping (history + gateway hint refresh).
    // Per-agent state only — the engine fans it across the pool.
    {
      AGENTNET_OBS_PHASE(kSense);
      par.for_each(agents.size(),
                   [&](std::size_t i) { agents[i].arrive(is_gateway, t); });
    }

    // Phase 2: decide on the live graph. Paper order: the movement decision
    // precedes the meeting exchange. Stigmergic agents stamp immediately so
    // later deciders this step disperse away from them. A crashed node has
    // no out-links in the live graph, so agents on it hold position.
    std::vector<NodeId> targets;
    {
      AGENTNET_OBS_PHASE(kDecide);
      decide_order.resize(agents.size());
      std::iota(decide_order.begin(), decide_order.end(), 0);
      rng.shuffle(std::span<std::size_t>(decide_order));
      const bool any_stigmergic =
          std::any_of(agents.begin(), agents.end(),
                      [](const RoutingAgent& a) { return a.stigmergic(); });
      targets = decide_targets(agents, decide_order, live, board, t, par,
                               any_stigmergic);
    }

    // Phase 3: meetings — co-located *communicating* agents adopt the
    // group's best route and merge histories. Pool first (snapshot
    // semantics), then apply. Non-communicating agents in the group
    // neither share nor learn.
    if (any_communicates && agents.size() > 1) {
      AGENTNET_OBS_PHASE(kExchange);
      // Plan pass (serial): membership, venue, the crashed-host check and
      // the per-meeting corruption draw, in group order — the exact RNG
      // sequence of the historical single-pass loop (pooling draws
      // nothing).
      meetings.clear();
      {
        obs::ScopedPhase plan_phase(obs::Phase::kExchangePlan);
        for (const auto& group : colocated_groups(agents)) {
          MeetingPlan meeting;
          for (std::size_t idx : group)
            if (agents[idx].config().communicate)
              meeting.talkers.push_back(idx);
          if (meeting.talkers.size() < 2) continue;
          // A crashed host carries no meeting; a corrupted exchange is
          // drawn per meeting — the payload is discarded, nobody learns.
          meeting.venue = agents[meeting.talkers[0]].location();
          if (injector.down(meeting.venue)) continue;
          meeting.corrupted = loop.corrupt_exchange();
          meetings.push_back(std::move(meeting));
        }
      }
      // Pool + adopt (group-parallel): meetings are disjoint, so each can
      // pick its best hint, pool histories and distribute to its own
      // members concurrently — per-worker scratch, no events, no RNG.
      const auto pool_meeting = [&](const MeetingPlan& meeting,
                                    FlatMap<NodeId, std::size_t>& scratch) {
        RoutingAgent::RouteHint best;  // invalid
        for (std::size_t idx : meeting.talkers)
          if (RoutingAgent::hint_better(agents[idx].hint(), best))
            best = agents[idx].hint();
        // Pool histories (max last-visit per node) before anyone mutates.
        scratch.clear();
        for (std::size_t idx : meeting.talkers) {
          for (const auto& [node, step] : agents[idx].history()) {
            auto it = scratch.find(node);
            if (it == scratch.end())
              scratch.emplace(node, step);
            else
              it->second = std::max(it->second, step);
          }
        }
        for (std::size_t idx : meeting.talkers)
          agents[idx].adopt(best, scratch);
      };
      if (par.active() && meetings.size() > 1) {
        par.for_each_scratch(
            meetings.size(), [] { return FlatMap<NodeId, std::size_t>(); },
            [&](std::size_t m, FlatMap<NodeId, std::size_t>& scratch) {
              if (!meetings[m].corrupted) pool_meeting(meetings[m], scratch);
            });
      } else {
        for (const MeetingPlan& meeting : meetings)
          if (!meeting.corrupted) pool_meeting(meeting, pooled);
      }
      commit_meetings(meetings, agents, t);
    }

    // Phase 4: move (the decision's link is still live — the world has not
    // advanced) and update the routing table of the node now occupied.
    // With failure injection, a migrating agent can be lost in transit —
    // it neither arrives nor installs, and its state is gone.
    {
      AGENTNET_OBS_PHASE(kMove);
      slots.migrate(agents, targets, loop, t, result, [&](std::size_t idx) {
        // A crashed host accepts no route installs.
        if (!injector.down(agents[idx].location()) &&
            agents[idx].install(tables, is_gateway, t)) {
          AGENTNET_OBS_EVENT(
              kRouteUpdate, t, agents[idx].id(),
              static_cast<std::int64_t>(agents[idx].location()));
        }
      });
    }

    // Environment advances; connectivity is measured on the new topology,
    // so freshly installed routes immediately face link churn.
    world.advance();
    AGENTNET_OBS_PHASE(kMeasure);
    const Graph& measured = loop.live_graph(world, world.step());
    // Resilience: age out routing entries whose next hop is currently
    // crashed — they cannot validate anyway, and clearing frees the table
    // slot for fresh offers instead of waiting out the freshness window.
    if (plan.age_crashed_routes && plan.topology_faults()) {
      for (NodeId v = 0; v < n; ++v) {
        const RouteEntry& entry = tables.entry(v);
        if (entry.valid() && injector.down(entry.next_hop)) {
          tables.clear(v);
          AGENTNET_COUNT(kRoutesAged);
        }
      }
    }
    result.connectivity.push_back(
        loop.connectivity(t, world, tables, is_gateway));
    if (config.record_oracle) {
      // A fault-masked view is not the world's own graph: no epoch key,
      // no recorded result — the BFS runs.
      const bool masked = plan.topology_faults();
      result.oracle.push_back(
          oracle_cache
              .measure(masked ? kNoCacheEpoch : world.epoch(), measured,
                       is_gateway,
                       masked || !config.script
                           ? nullptr
                           : config.script->oracle_at(world.step()))
              .fraction());
      AGENTNET_OBS_GAUGE(kOracleConnectivity, t, result.oracle.back());
    }
    // Traffic flows over the converged window only, so delivery measures
    // the steady state rather than the cold start.
    if (traffic && t >= config.measure_from)
      traffic->step(measured, tables, t);
  });
  if (traffic) {
    traffic->finish();
    result.traffic_stats = traffic->stats();
  }

  AGENTNET_OBS_PHASE(kSummarize);
  result.final_population = agents.size();
  const RunningStats window =
      window_stats(result.connectivity, config.measure_from);
  result.mean_connectivity = window.mean();
  result.stddev_connectivity = window.stddev();
  return result;
}

}  // namespace agentnet

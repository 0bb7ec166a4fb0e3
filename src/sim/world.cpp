#include "sim/world.hpp"

#include <algorithm>
#include <cmath>

#include "common/env.hpp"
#include "common/error.hpp"
#include "obs/obs.hpp"

namespace agentnet {

World::World(Aabb bounds, std::vector<Vec2> initial_positions,
             RadioModel radio, BatteryBank batteries,
             std::unique_ptr<MobilityModel> mobility, LinkPolicy policy)
    : bounds_(bounds),
      positions_(std::move(initial_positions)),
      radio_(std::move(radio)),
      batteries_(std::move(batteries)),
      mobility_(std::move(mobility)),
      builder_(bounds, radio_.max_base_range(), policy) {
  AGENTNET_REQUIRE(positions_.size() == radio_.size(),
                   "positions / radio size mismatch");
  AGENTNET_REQUIRE(positions_.size() == batteries_.size(),
                   "positions / batteries size mismatch");
  AGENTNET_REQUIRE(mobility_ != nullptr, "world needs a mobility model");
  quantum_ = env_double("AGENTNET_TOPO_RANGE_QUANTUM", 0.0);
  AGENTNET_REQUIRE(quantum_ >= 0.0, "range quantum must be >= 0");
  const auto threads_knob = env_int("AGENTNET_TOPO_SHARD_THREADS", 1);
  AGENTNET_REQUIRE(threads_knob >= 0, "shard threads must be >= 0");
  shard_threads_ = threads_knob == 0
                       ? ThreadPool::default_threads()
                       : static_cast<std::size_t>(threads_knob);
  // Only nodes that can move or discharge can ever dirty the topology;
  // stationary mains-powered nodes (gateways, frozen mapping networks) are
  // clean forever and cost nothing per advance().
  for (std::size_t i = 0; i < positions_.size(); ++i)
    if (!mobility_->is_stationary(i) || batteries_.on_battery(i))
      maybe_dirty_.push_back(static_cast<NodeId>(i));
  ranges_.resize(positions_.size());
  rebuild_derived();
  ++epoch_;  // the first graph opens epoch 1
}

World World::frozen(const GeneratedNetwork& net) {
  const std::size_t n = net.positions.size();
  BatteryBank mains(n, std::vector<bool>(n, false), BatteryParams{});
  World world(net.bounds, net.positions,
              RadioModel(net.base_ranges, RangeScaling{1.0}),
              std::move(mains), std::make_unique<StationaryMobility>(),
              net.policy);
  return world;
}

World World::fixed(Graph graph) {
  const std::size_t n = graph.node_count();
  AGENTNET_REQUIRE(n >= 1, "fixed world needs at least one node");
  // Synthetic unit-spaced geometry so World's invariants hold; the graph
  // itself is pinned and never derived from it.
  std::vector<Vec2> positions(n);
  for (std::size_t i = 0; i < n; ++i)
    positions[i] = {static_cast<double>(i), 0.0};
  const Aabb bounds{{-1.0, -1.0}, {static_cast<double>(n), 1.0}};
  BatteryBank mains(n, std::vector<bool>(n, false), BatteryParams{});
  World world(bounds, std::move(positions),
              RadioModel(std::vector<double>(n, 0.5), RangeScaling{1.0}),
              std::move(mains), std::make_unique<StationaryMobility>(),
              LinkPolicy::kDirected);
  world.fixed_topology_ = true;
  world.shards_.reset();  // pinned graph: no upkeep, no shard structures
  world.geo_graph_ = std::move(graph);
  world.csr_.rebuild_from(world.geo_graph_);
  return world;
}

void World::advance() {
  AGENTNET_OBS_PHASE(kWorldAdvance);
  if (script_ && step_ >= script_->steps()) set_script(nullptr);
  mobility_->step(positions_);
  batteries_.step();
  // Sampled at the pre-increment step, which is the task loop's current t.
  if (AGENTNET_OBS_METRICS_WANT(step_) && batteries_.size() > 0) {
    std::size_t alive = 0;
    for (std::size_t i = 0; i < batteries_.size(); ++i)
      if (batteries_.fraction(i) > 0.0) ++alive;
    AGENTNET_OBS_GAUGE(kBatteryAlive, step_,
                       static_cast<double>(alive) /
                           static_cast<double>(batteries_.size()));
  }
  ++step_;  // the refreshed graph (incl. link weather) belongs to the new step
  if (script_)
    replay_topology();
  else
    refresh_topology();
}

void World::replay_topology() {
  // The live path's decisions for this step, copied: same edge changes,
  // same epoch bumps, same counter increments.
  const std::size_t i = step_ - 1;
  const WorldScript::Step& s = script_->step(i);
  const auto removed = script_->removed(i);
  const auto added = script_->added(i);
  for (const Edge& e : removed) geo_graph_.remove_edge(e.from, e.to);
  for (const Edge& e : added) geo_graph_.add_edge(e.from, e.to);
  if (s.state_bumped) ++state_epoch_;
  AGENTNET_COUNT_N(kTopoNodesDirty, s.nodes_dirty);
  AGENTNET_COUNT_N(kDerivedCacheHits, s.cache_hits);
  AGENTNET_COUNT_N(kShardTilesDirty, s.tiles_dirty);
  AGENTNET_COUNT_N(kShardHaloRows, s.halo_rows);
  if (!s.epoch_bumped) return;
  ++epoch_;
  // Patch the padded CSR at the changed rows, like the live path.
  touched_rows_.clear();
  for (const Edge& e : removed) touched_rows_.push_back(e.from);
  for (const Edge& e : added) touched_rows_.push_back(e.from);
  std::sort(touched_rows_.begin(), touched_rows_.end());
  touched_rows_.erase(std::unique(touched_rows_.begin(), touched_rows_.end()),
                      touched_rows_.end());
  patch_csr(touched_rows_);
}

void World::set_script(const WorldScript* script) {
  if (script) {
    AGENTNET_REQUIRE(geometric() && !weather_active_,
                     "world scripts replay geometric worlds without weather");
    AGENTNET_REQUIRE(script->node_count() == node_count(),
                     "world script node count mismatch");
  } else if (script_) {
    // Replay never touched the builder grid, ranges or shard tiles; resync
    // them before live upkeep diffs against them again.
    rebuild_derived();
  }
  script_ = script;
}

double World::quantized_range(NodeId node) const {
  const double r = effective_range(node);
  if (quantum_ <= 0.0) return r;
  return std::floor(r / quantum_) * quantum_;
}

void World::refresh_topology() {
  if (fixed_topology_) return;  // pinned graph (and its CSR) never change
  // Tile-local scan; the merged output is the ascending set of nodes whose
  // position or quantized range changed since the last build, with their
  // new ranges already in ranges_. A world without maybe-dirty nodes has
  // no tile members, so it skips the scan and its dirty set stays empty.
  if (!maybe_dirty_.empty())
    shards_->scan(
        positions_, [this](NodeId m) { return quantized_range(m); }, ranges_,
        shard_pool());
  const std::vector<NodeId>& dirty = shards_->dirty_ids();
  bool geo_changed = false;
  touched_rows_.clear();
  if (!dirty.empty()) {
    ++state_epoch_;
    AGENTNET_COUNT_N(kTopoNodesDirty, dirty.size());
    AGENTNET_COUNT_N(kShardTilesDirty, shards_->last_tiles_dirty());
    TopologyBuilder::UpdateOptions opts;
    opts.pool = shard_pool();
    opts.touched_rows = &touched_rows_;
    geo_changed =
        builder_.update_into(geo_graph_, dirty, positions_, ranges_, opts);
    // Halo rows: modified rows that were not themselves dirty — clean
    // neighbours fixed up across tile boundaries. Two-pointer walk over
    // the two ascending lists.
    std::size_t halo = 0;
    std::size_t d = 0;
    for (NodeId u : touched_rows_) {
      while (d < dirty.size() && dirty[d] < u) ++d;
      if (d == dirty.size() || dirty[d] != u) ++halo;
    }
    AGENTNET_COUNT_N(kShardHaloRows, halo);
  }
  refresh_effective(geo_changed);
}

void World::refresh_effective(bool geo_changed) {
  bool effective_changed = geo_changed;
  if (weather_active_) {
    if (step_ / flapper_->persistence() != flap_window_) {
      // Window boundary: the whole weather draw changes.
      effective_changed = redraw_weather();
      if (effective_changed) csr_.rebuild_padded_from(flapped_);
    } else {
      // Same window: down(u,v) is frozen, so only rows whose geometry
      // changed can differ. Re-filter exactly those, keeping the running
      // drop total so kLinkFlaps charges every drop the view contains.
      effective_changed = false;
      for (NodeId u : touched_rows_) {
        const std::uint32_t drops = filter_row(u);
        const auto old_row = flapped_.out_neighbors(u);
        if (!std::equal(old_row.begin(), old_row.end(), flap_scratch_.begin(),
                        flap_scratch_.end())) {
          effective_changed = true;
          flapped_.assign_out_edges(u, flap_scratch_);
        }
        flap_drops_ = flap_drops_ - flap_row_drops_[u] + drops;
        flap_row_drops_[u] = drops;
      }
      AGENTNET_COUNT_N(kLinkFlaps, flap_drops_);
      if (effective_changed) patch_csr(touched_rows_);
    }
  } else if (effective_changed) {
    patch_csr(touched_rows_);
  }
  if (effective_changed) {
    ++epoch_;
  } else {
    AGENTNET_COUNT(kDerivedCacheHits);  // CSR snapshot stayed warm
  }
}

std::uint32_t World::filter_row(NodeId u) {
  flap_scratch_.clear();
  std::uint32_t drops = 0;
  for (NodeId v : geo_graph_.out_neighbors(u)) {
    if (flapper_->down(u, v, step_))
      ++drops;
    else
      flap_scratch_.push_back(v);
  }
  return drops;
}

bool World::redraw_weather() {
  const std::size_t n = geo_graph_.node_count();
  back_flapped_.reset(n);
  flap_row_drops_.resize(n);
  flap_drops_ = 0;
  for (NodeId u = 0; u < n; ++u) {
    const std::uint32_t drops = filter_row(u);
    back_flapped_.assign_out_edges(u, flap_scratch_);
    flap_row_drops_[u] = drops;
    flap_drops_ += drops;
  }
  AGENTNET_COUNT_N(kLinkFlaps, flap_drops_);
  const bool changed = !(back_flapped_ == flapped_);
  std::swap(flapped_, back_flapped_);
  flap_window_ = step_ / flapper_->persistence();
  return changed;
}

void World::patch_csr(const std::vector<NodeId>& rows) {
  const Graph& g = graph();
  for (NodeId u : rows) {
    if (!csr_.patch_row(u, g.out_neighbors(u))) {
      csr_.rebuild_padded_from(g);
      return;
    }
  }
}

void World::set_shard_threads(std::size_t threads) {
  shard_threads_ = threads == 0 ? ThreadPool::default_threads() : threads;
  if (shard_pool_ && shard_pool_->size() != shard_threads_)
    shard_pool_.reset();
}

ThreadPool* World::shard_pool() {
  if (shard_threads_ <= 1) return nullptr;
  if (!shard_pool_) shard_pool_ = std::make_unique<ThreadPool>(shard_threads_);
  return shard_pool_.get();
}

std::size_t World::memory_bytes() const {
  std::size_t bytes = positions_.capacity() * sizeof(Vec2) +
                      ranges_.capacity() * sizeof(double) +
                      maybe_dirty_.capacity() * sizeof(NodeId) +
                      touched_rows_.capacity() * sizeof(NodeId) +
                      flap_row_drops_.capacity() * sizeof(std::uint32_t) +
                      geo_graph_.heap_bytes() + csr_.heap_bytes() +
                      builder_.heap_bytes();
  if (weather_active_)
    bytes += flapped_.heap_bytes() + back_flapped_.heap_bytes();
  if (shards_) bytes += shards_->heap_bytes();
  return bytes;
}

void World::save_state(snapshot::ByteWriter& w) const {
  w.size(positions_.size());
  for (const Vec2& p : positions_) {
    w.f64(p.x);
    w.f64(p.y);
  }
  w.size(step_);
  batteries_.save_state(w);
  mobility_->save_state(w);
  w.u64(epoch_);
  w.u64(state_epoch_);
}

void World::load_state(snapshot::ByteReader& r) {
  const std::size_t n = r.counted(16);
  AGENTNET_REQUIRE(n == positions_.size(), "snapshot: node count mismatch");
  for (Vec2& p : positions_) {
    p.x = r.f64();
    p.y = r.f64();
  }
  step_ = r.size();
  batteries_.load_state(r);
  mobility_->load_state(r);
  // Rebuild every derived structure from the restored snapshot; a world
  // replaying a script continues the replay from the restored step.
  if (!fixed_topology_) rebuild_derived();
  // The epoch counters are restored directly (not bumped by the rebuilds
  // above) so derived-state caches keyed on them stay coherent.
  epoch_ = r.u64();
  state_epoch_ = r.u64();
}

void World::rebuild_derived() {
  // The post-advance invariant ranges_[i] == quantized_range(i) holds
  // between steps, so recomputing here reproduces the built state exactly.
  for (std::size_t i = 0; i < ranges_.size(); ++i)
    ranges_[i] = quantized_range(static_cast<NodeId>(i));
  builder_.build_into(geo_graph_, positions_, ranges_);
  if (weather_active_) redraw_weather();
  const double tile =
      std::max(radio_.max_base_range() * kShardTileFactor, 1e-9);
  shards_ = std::make_unique<WorldShards>(bounds_, tile, maybe_dirty_,
                                          positions_, ranges_, batteries_);
  csr_.rebuild_padded_from(graph());
}

void World::set_link_flapper(std::optional<LinkFlapper> flapper) {
  AGENTNET_REQUIRE(!fixed_topology_ || !flapper,
                   "fixed-topology worlds do not support link flappers");
  set_script(nullptr);
  flapper_ = std::move(flapper);
  weather_active_ = flapper_ && flapper_->drop_probability() > 0.0;
  // Reconfiguration: the effective view may have switched representation,
  // so refresh it and conservatively open a new epoch.
  if (weather_active_) redraw_weather();
  csr_.rebuild_padded_from(graph());
  ++epoch_;
}

}  // namespace agentnet

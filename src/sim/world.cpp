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
  incremental_ = env_bool("AGENTNET_TOPO_INCREMENTAL", true);
  quantum_ = env_double("AGENTNET_TOPO_RANGE_QUANTUM", 0.0);
  AGENTNET_REQUIRE(quantum_ >= 0.0, "range quantum must be >= 0");
  shard_tile_factor_ = env_double("AGENTNET_TOPO_SHARD_TILE", 4.0);
  AGENTNET_REQUIRE(shard_tile_factor_ > 0.0, "shard tile factor must be > 0");
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
  for (std::size_t i = 0; i < ranges_.size(); ++i)
    ranges_[i] = quantized_range(static_cast<NodeId>(i));
  built_positions_ = positions_;
  builder_.build_into(geo_graph_, positions_, ranges_);
  refresh_effective(true);
  // AGENTNET_TOPO_SHARD: "auto" (default) turns sharded upkeep on from
  // AGENTNET_TOPO_SHARD_MIN_NODES nodes; explicit on/off overrides.
  const auto shard_env = env_string("AGENTNET_TOPO_SHARD");
  bool want_sharded;
  if (!shard_env || *shard_env == "auto") {
    const auto min_nodes = env_int("AGENTNET_TOPO_SHARD_MIN_NODES", 4096);
    want_sharded = min_nodes >= 0 &&
                   positions_.size() >= static_cast<std::size_t>(min_nodes);
  } else {
    want_sharded = env_bool("AGENTNET_TOPO_SHARD", false);
  }
  if (want_sharded) set_sharding(true);
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
  world.sharded_ = false;  // pinned graph: no upkeep, no shard structures
  world.shards_.reset();
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
  AGENTNET_COUNT_N(kTopoFullRebuilds, s.full_rebuilds);
  AGENTNET_COUNT_N(kDerivedCacheHits, s.cache_hits);
  AGENTNET_COUNT_N(kShardTilesDirty, s.tiles_dirty);
  AGENTNET_COUNT_N(kShardHaloRows, s.halo_rows);
  if (!s.epoch_bumped) return;
  ++epoch_;
  if (!sharded_) {
    csr_.rebuild_from(geo_graph_);
    return;
  }
  // Patch the padded CSR at the changed rows, like the sharded live path.
  touched_rows_.clear();
  for (const Edge& e : removed) touched_rows_.push_back(e.from);
  for (const Edge& e : added) touched_rows_.push_back(e.from);
  std::sort(touched_rows_.begin(), touched_rows_.end());
  touched_rows_.erase(std::unique(touched_rows_.begin(), touched_rows_.end()),
                      touched_rows_.end());
  for (NodeId u : touched_rows_) {
    if (!csr_.patch_row(u, geo_graph_.out_neighbors(u))) {
      csr_.rebuild_padded_from(geo_graph_);
      break;
    }
  }
}

void World::set_script(const WorldScript* script) {
  if (script) {
    AGENTNET_REQUIRE(geometric() && !weather_active_,
                     "world scripts replay geometric worlds without weather");
    AGENTNET_REQUIRE(script->node_count() == node_count(),
                     "world script node count mismatch");
  } else if (script_) {
    // Replay never touched the builder grid, ranges or built positions;
    // resync them before live upkeep diffs against them again.
    rebuild_derived();
  }
  script_ = script;
}

double World::quantized_range(NodeId node) const {
  const double r = effective_range(node);
  if (quantum_ <= 0.0) return r;
  return std::floor(r / quantum_) * quantum_;
}

void World::collect_dirty() {
  dirty_.clear();
  for (NodeId i : maybe_dirty_) {
    const double r = quantized_range(i);
    if (positions_[i] != built_positions_[i] || r != ranges_[i]) {
      dirty_.push_back(i);
      ranges_[i] = r;
    }
  }
  if (!dirty_.empty()) ++state_epoch_;
}

void World::refresh_topology() {
  if (fixed_topology_) return;  // pinned graph (and its CSR) never change
  if (sharded_) {
    refresh_topology_sharded();
    return;
  }
  collect_dirty();
  bool geo_changed = false;
  if (!dirty_.empty()) {
    if (incremental_) {
      AGENTNET_COUNT_N(kTopoNodesDirty, dirty_.size());
      geo_changed =
          builder_.update_into(geo_graph_, dirty_, positions_, ranges_);
      for (NodeId u : dirty_) built_positions_[u] = positions_[u];
    } else {
      AGENTNET_COUNT(kTopoFullRebuilds);
      builder_.build_into(back_graph_, positions_, ranges_);
      geo_changed = !(back_graph_ == geo_graph_);
      std::swap(geo_graph_, back_graph_);
      built_positions_ = positions_;
    }
  }
  refresh_effective(geo_changed);
}

void World::refresh_topology_sharded() {
  // Tile-local scan; the merged output is the same ascending dirty set the
  // flat collect_dirty() produces, so everything downstream matches.
  shards_->collect_dirty(
      positions_, [this](NodeId m) { return quantized_range(m); },
      shard_pool());
  const std::vector<NodeId>& dirty = shards_->dirty_ids();
  bool geo_changed = false;
  touched_rows_.clear();
  if (!dirty.empty()) {
    ++state_epoch_;
    AGENTNET_COUNT_N(kTopoNodesDirty, dirty.size());
    AGENTNET_COUNT_N(kShardTilesDirty, shards_->last_tiles_dirty());
    const std::vector<double>& new_ranges = shards_->dirty_ranges();
    for (std::size_t k = 0; k < dirty.size(); ++k)
      ranges_[dirty[k]] = new_ranges[k];
    TopologyBuilder::UpdateOptions opts;
    opts.pool = shard_pool();
    opts.touched_rows = &touched_rows_;
    geo_changed =
        builder_.update_into(geo_graph_, dirty, positions_, ranges_, opts);
    for (NodeId u : dirty) built_positions_[u] = positions_[u];
    shards_->commit(positions_);
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
  refresh_effective_sharded(geo_changed);
}

void World::rebuild_flapped() {
  back_flapped_.reset(geo_graph_.node_count());
  std::size_t drops = 0;
  for (NodeId u = 0; u < geo_graph_.node_count(); ++u) {
    flap_scratch_.clear();
    for (NodeId v : geo_graph_.out_neighbors(u)) {
      if (flapper_->down(u, v, step_))
        ++drops;
      else
        flap_scratch_.push_back(v);
    }
    back_flapped_.assign_out_edges(u, flap_scratch_);
  }
  AGENTNET_COUNT_N(kLinkFlaps, drops);
  flap_drops_ = drops;
}

void World::refresh_effective(bool geo_changed) {
  bool effective_changed;
  if (weather_active_) {
    const std::uint64_t window = step_ / flapper_->persistence();
    if (geo_changed || !flapped_valid_ || window != flap_window_) {
      rebuild_flapped();
      effective_changed = !flapped_valid_ || !(back_flapped_ == flapped_);
      std::swap(flapped_, back_flapped_);
      flapped_valid_ = true;
      flap_window_ = window;
    } else {
      // Same geometry, same weather window: the view is unchanged. Charge
      // the drops it still contains so kLinkFlaps totals stay identical to
      // the historical apply-every-step path.
      AGENTNET_COUNT_N(kLinkFlaps, flap_drops_);
      effective_changed = false;
    }
  } else {
    effective_changed = geo_changed;
  }
  if (effective_changed) {
    csr_.rebuild_from(graph());
    ++epoch_;
  } else {
    AGENTNET_COUNT(kDerivedCacheHits);  // CSR snapshot stayed warm
  }
}

void World::refresh_effective_sharded(bool geo_changed) {
  // Mirrors refresh_effective() decision for decision — same epoch bumps,
  // same counter emissions — but replaces every wholesale rebuild with
  // per-row patching of the rows listed in touched_rows_.
  bool effective_changed;
  if (weather_active_) {
    const std::uint64_t window = step_ / flapper_->persistence();
    if (!flapped_valid_ || window != flap_window_) {
      // Window boundary: the whole weather draw changes — full rebuild,
      // exactly like the flat path (it pays O(E) here too).
      rebuild_flapped();
      effective_changed = !flapped_valid_ || !(back_flapped_ == flapped_);
      std::swap(flapped_, back_flapped_);
      flapped_valid_ = true;
      flap_window_ = window;
      rebuild_flap_row_drops();
      if (effective_changed) {
        csr_.rebuild_padded_from(flapped_);
        ++epoch_;
      } else {
        AGENTNET_COUNT(kDerivedCacheHits);
      }
      return;
    }
    // Same window: down(u,v) is frozen, so only rows whose geometry
    // changed can differ. Re-filter exactly those, maintaining the
    // running drop total so kLinkFlaps matches the flat path's recount.
    effective_changed = false;
    bool csr_fits = true;
    for (NodeId u : touched_rows_) {
      flap_scratch_.clear();
      std::uint32_t drops = 0;
      for (NodeId v : geo_graph_.out_neighbors(u)) {
        if (flapper_->down(u, v, step_))
          ++drops;
        else
          flap_scratch_.push_back(v);
      }
      const auto old_row = flapped_.out_neighbors(u);
      if (!std::equal(old_row.begin(), old_row.end(), flap_scratch_.begin(),
                      flap_scratch_.end()))
        effective_changed = true;
      flapped_.assign_out_edges(u, flap_scratch_);
      flap_drops_ += drops;
      flap_drops_ -= flap_row_drops_[u];
      flap_row_drops_[u] = drops;
      if (csr_fits) csr_fits = csr_.patch_row(u, flap_scratch_);
    }
    if (!csr_fits) csr_.rebuild_padded_from(flapped_);
    AGENTNET_COUNT_N(kLinkFlaps, flap_drops_);
  } else {
    effective_changed = geo_changed;
    if (effective_changed) {
      for (NodeId u : touched_rows_) {
        if (!csr_.patch_row(u, geo_graph_.out_neighbors(u))) {
          csr_.rebuild_padded_from(geo_graph_);
          break;
        }
      }
    }
  }
  if (effective_changed) {
    ++epoch_;
  } else {
    AGENTNET_COUNT(kDerivedCacheHits);  // CSR snapshot stayed warm
  }
}

void World::rebuild_flap_row_drops() {
  const std::size_t n = geo_graph_.node_count();
  flap_row_drops_.assign(n, 0);
  for (NodeId u = 0; u < n; ++u)
    flap_row_drops_[u] = static_cast<std::uint32_t>(
        geo_graph_.out_degree(u) - flapped_.out_degree(u));
}

void World::init_shards() {
  const double tile =
      std::max(radio_.max_base_range() * shard_tile_factor_, 1e-9);
  shards_ = std::make_unique<WorldShards>(bounds_, tile, maybe_dirty_,
                                          built_positions_, ranges_,
                                          batteries_);
  csr_.rebuild_padded_from(graph());
  if (weather_active_ && flapped_valid_) rebuild_flap_row_drops();
}

void World::set_sharding(bool sharded) {
  AGENTNET_REQUIRE(!fixed_topology_ || !sharded,
                   "fixed-topology worlds do not shard");
  if (sharded == sharded_) return;
  set_script(nullptr);
  sharded_ = sharded;
  if (sharded_) {
    init_shards();
  } else {
    shards_.reset();
    csr_.rebuild_from(graph());  // repack dense; logically unchanged
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
                      built_positions_.capacity() * sizeof(Vec2) +
                      ranges_.capacity() * sizeof(double) +
                      maybe_dirty_.capacity() * sizeof(NodeId) +
                      dirty_.capacity() * sizeof(NodeId) +
                      touched_rows_.capacity() * sizeof(NodeId) +
                      flap_row_drops_.capacity() * sizeof(std::uint32_t) +
                      geo_graph_.heap_bytes() + back_graph_.heap_bytes() +
                      csr_.heap_bytes() + builder_.heap_bytes();
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
  built_positions_ = positions_;
  builder_.build_into(geo_graph_, positions_, ranges_);
  if (weather_active_) {
    rebuild_flapped();
    std::swap(flapped_, back_flapped_);
    flapped_valid_ = true;
    flap_window_ = step_ / flapper_->persistence();
  }
  if (sharded_) {
    // Shard tiles, padded CSR and weather row counts are all derived
    // state — rebuilt here, never serialized, so the snapshot bytes are
    // identical to a flat world's.
    init_shards();
  } else {
    csr_.rebuild_from(graph());
  }
}

void World::set_link_flapper(std::optional<LinkFlapper> flapper) {
  AGENTNET_REQUIRE(!fixed_topology_ || !flapper,
                   "fixed-topology worlds do not support link flappers");
  set_script(nullptr);
  flapper_ = std::move(flapper);
  weather_active_ = flapper_ && flapper_->drop_probability() > 0.0;
  flapped_valid_ = false;
  // Reconfiguration: the effective view may have switched representation,
  // so refresh it and conservatively open a new epoch.
  if (weather_active_) {
    rebuild_flapped();
    std::swap(flapped_, back_flapped_);
    flapped_valid_ = true;
    flap_window_ = step_ / flapper_->persistence();
  }
  if (sharded_) {
    csr_.rebuild_padded_from(graph());
    if (weather_active_) rebuild_flap_row_drops();
  } else {
    csr_.rebuild_from(graph());
  }
  ++epoch_;
}

}  // namespace agentnet

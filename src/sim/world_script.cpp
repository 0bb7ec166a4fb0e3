#include "sim/world_script.hpp"

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "sim/world.hpp"

namespace agentnet {

namespace {

/// Appends the edges of `before` missing from `after` to `removed` and the
/// reverse to `added`, both in (from, to) order: one merge walk per row.
void diff_into(const Graph& before, const Graph& after,
               std::vector<Edge>& removed, std::vector<Edge>& added) {
  for (NodeId u = 0; u < before.node_count(); ++u) {
    const auto old_row = before.out_neighbors(u);
    const auto new_row = after.out_neighbors(u);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < old_row.size() || j < new_row.size()) {
      if (j == new_row.size() ||
          (i < old_row.size() && old_row[i] < new_row[j])) {
        removed.push_back({u, old_row[i++]});
      } else if (i == old_row.size() || new_row[j] < old_row[i]) {
        added.push_back({u, new_row[j++]});
      } else {
        ++i;
        ++j;
      }
    }
  }
}

std::uint32_t delta(const obs::CounterSlot& slot, obs::Counter counter,
                    const obs::MetricsSnapshot& before) {
  return static_cast<std::uint32_t>(slot.value(counter) -
                                    before.value(counter));
}

}  // namespace

WorldScript WorldScript::record(
    World& world, std::size_t steps,
    const std::function<void(const World&)>& after_step) {
  AGENTNET_REQUIRE(world.geometric(), "only geometric worlds can be recorded");
  AGENTNET_REQUIRE(world.step() == 0, "recording starts at step 0");
  AGENTNET_REQUIRE(!world.link_flapper() && world.script() == nullptr,
                   "recording needs the plain live upkeep path");
  obs::RunObs scratch;
  obs::ObsRunScope scope(scratch);
  WorldScript script;
  script.node_count_ = world.node_count();
  script.steps_.reserve(steps);
  Graph before = world.graph();
  for (std::size_t s = 0; s < steps; ++s) {
    const obs::MetricsSnapshot counters = obs::snapshot(scratch.counters);
    const std::uint64_t epoch = world.epoch();
    const std::uint64_t state_epoch = world.state_epoch();
    world.advance();
    Step step;
    step.epoch_bumped = world.epoch() != epoch;
    step.state_bumped = world.state_epoch() != state_epoch;
    // An unchanged epoch guarantees an unchanged edge set.
    if (step.epoch_bumped) {
      diff_into(before, world.graph(), script.removed_, script.added_);
      before = world.graph();
    }
    step.removed_end = static_cast<std::uint32_t>(script.removed_.size());
    step.added_end = static_cast<std::uint32_t>(script.added_.size());
    using obs::Counter;
    step.nodes_dirty = delta(scratch.counters, Counter::kTopoNodesDirty,
                             counters);
    step.cache_hits = delta(scratch.counters, Counter::kDerivedCacheHits,
                            counters);
    step.tiles_dirty = delta(scratch.counters, Counter::kShardTilesDirty,
                             counters);
    step.halo_rows = delta(scratch.counters, Counter::kShardHaloRows,
                           counters);
    script.steps_.push_back(step);
    if (after_step) after_step(world);
  }
  script.removed_.shrink_to_fit();  // shared for the experiment's lifetime
  script.added_.shrink_to_fit();
  return script;
}

std::span<const Edge> WorldScript::removed(std::size_t i) const {
  const std::uint32_t begin = i == 0 ? 0 : steps_[i - 1].removed_end;
  return {removed_.data() + begin, steps_[i].removed_end - begin};
}

std::span<const Edge> WorldScript::added(std::size_t i) const {
  const std::uint32_t begin = i == 0 ? 0 : steps_[i - 1].added_end;
  return {added_.data() + begin, steps_[i].added_end - begin};
}

std::size_t WorldScript::memory_bytes() const {
  return steps_.capacity() * sizeof(Step) +
         (removed_.capacity() + added_.capacity()) * sizeof(Edge);
}

}  // namespace agentnet

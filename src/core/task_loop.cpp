#include "core/task_loop.hpp"

#include <string>

namespace agentnet {

TaskLoop::TaskLoop(const RunContext& context)
    : plan_(context.faults),
      par_(context.agent_parallel),
      checkpoint_(context.checkpoint),
      setup_phase_(obs::Phase::kSetup) {
  plan_.validate();
}

void TaskLoop::fork_faults(Rng& rng, FaultFork fork) {
  fork_ = fork;
  if (fork == FaultFork::kAlways || plan_.any())
    injector_.emplace(plan_, rng.fork(0xFA11));
}

double TaskLoop::connectivity(std::size_t t, const World& world,
                              const RoutingTables& tables,
                              const std::vector<bool>& is_gateway) {
  const double fraction =
      topology_faults()
          ? measure_connectivity(injector_->live_graph(world, world.step()),
                                 tables, is_gateway, 0, par_)
                .fraction()
          : cache_.measure(world, tables, is_gateway, 0, par_).fraction();
  AGENTNET_OBS_GAUGE(kConnectivity, t, fraction);
  return fraction;
}

void TaskLoop::save_faults(snapshot::ByteWriter& w) const {
  if (fork_ == FaultFork::kWhenLive) w.boolean(injector_.has_value());
  if (injector_) injector_->save_state(w);
}

void TaskLoop::load_faults(snapshot::ByteReader& r) {
  if (fork_ == FaultFork::kWhenLive)
    AGENTNET_REQUIRE(r.boolean() == injector_.has_value(),
                     "snapshot: fault plan mismatch");
  if (injector_) injector_->load_state(r);
}

RunningStats window_stats(std::span<const double> series,
                          std::size_t measure_from) {
  RunningStats window;
  for (std::size_t t = measure_from; t < series.size(); ++t)
    window.add(series[t]);
  return window;
}

AgentSlots::AgentSlots(std::size_t roster, std::size_t watchdog_ttl)
    : watchdog_(watchdog_ttl, roster),
      slot_of_(roster),
      next_id_(static_cast<int>(roster)) {
  for (std::size_t a = 0; a < roster; ++a) slot_of_[a] = a;
}

void AgentSlots::save_state(snapshot::ByteWriter& w) const {
  watchdog_.save_state(w);
  w.pod_vec(slot_of_);
  w.scalar(next_id_);
}

void AgentSlots::load_state(snapshot::ByteReader& r) {
  watchdog_.load_state(r);
  const std::size_t roster = watchdog_.slots();
  const std::size_t at = r.position();
  r.pod_vec(slot_of_);
  std::vector<char> held(roster, 0);
  for (std::size_t i = 0; i < slot_of_.size(); ++i) {
    const std::size_t slot = slot_of_[i];
    if (slot < roster && !held[slot]) {
      held[slot] = 1;
      continue;
    }
    throw ConfigError("snapshot: roster slot " + std::to_string(slot) +
                      (slot < roster ? " held twice"
                                     : " outside a roster of " +
                                           std::to_string(roster)) +
                      " at byte " + std::to_string(at + 8 + 8 * i));
  }
  next_id_ = r.scalar<int>();
}

}  // namespace agentnet

// Deterministic intra-run agent parallelism (AGENTNET_AGENT_THREADS).
//
// AgentParallel fans the per-step agent phases — sense, decide,
// group-disjoint exchanges, per-root measurement walks, per-node traffic
// service — over the run's one fork-join team (common/fork_join.hpp). The
// same team does the run's world upkeep (World::set_team), so a run's
// thread count is one set of threads. It is the intra-run counterpart of
// the replication fan-out (parallel_for_claimed, common/parallel_for.hpp,
// plain threads per call) and obeys the same contract
// (docs/ARCHITECTURE.md, "Determinism & parallelism"):
//
//   * threads <= 1 (the default) runs the *exact* serial loop on the
//     caller's thread — no team, no wrappers — so `AGENTNET_AGENT_THREADS`
//     unset reproduces pre-engine behaviour bit for bit.
//   * Parallel bodies follow a two-phase read/commit step: fn(i) reads
//     frozen pre-step state (the graph, stigmergy stamps, pheromone rows)
//     and writes index i's pre-allocated slot; the caller commits slots in
//     index order afterwards. No shared RNG draws and no trace events
//     inside fn — task loops pre-draw fault decisions and replay events
//     serially, so every output byte is identical at any thread count.
//   * Team chunks run under the caller's RunObs slot (ObsRunScope), so
//     relaxed-atomic counter bumps land in the right replication no matter
//     which team thread executes them.
//
// Copies share the team, and a team runs one job at a time, so one run's
// copies are used from that run's thread only. Concurrent runs each build
// their own team: R runs (AGENTNET_THREADS) × T agent threads.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>

#include "common/fork_join.hpp"
#include "obs/obs_level.hpp"
#include "obs/scope.hpp"

namespace agentnet {

struct AgentParallelConfig {
  /// Threads of the run's one team: agent phases, connectivity walks and
  /// world upkeep. 1 = the exact serial path; 0 = one per hardware thread.
  std::size_t threads = 1;

  /// Reads AGENTNET_AGENT_THREADS: unset/empty → 1 (serial), 0 → one per
  /// hardware thread. Mirrors ObsConfig::from_env so task configs embed
  /// it and the environment drives every harness without CLI changes.
  static AgentParallelConfig from_env();
};

class AgentParallel {
 public:
  /// Inactive engine: every for_each is the plain serial loop.
  AgentParallel() = default;
  /// Builds the run's team when the config asks for more than one thread.
  explicit AgentParallel(const AgentParallelConfig& config);

  /// False selects the exact serial loop in the for_each variants.
  bool active() const { return team_ != nullptr; }
  /// The run's team (null when inactive), for World::set_team.
  const std::shared_ptr<ForkJoin>& team() const { return team_; }

  /// Runs fn(i) for every i in [0, n). fn must be safe to call
  /// concurrently for distinct i — each index writes only its own slot.
  template <typename Fn>
  void for_each(std::size_t n, Fn&& fn) const {
    if (!active() || n < 2) {
      for (std::size_t i = 0; i < n; ++i) fn(i);
      return;
    }
    dispatch(n, [&fn](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    });
  }

  /// Like for_each, but hands fn(i, scratch) a worker-local scratch built
  /// by make() — one per chunk, reused across the chunk's indices — for
  /// bodies that need heavy temporaries (pooled bitsets, BFS state).
  /// fn must reset whatever it reads: results may depend on scratch
  /// *capacity* reuse but never on scratch contents from a previous index.
  template <typename Make, typename Fn>
  void for_each_scratch(std::size_t n, Make&& make, Fn&& fn) const {
    if (!active() || n < 2) {
      auto scratch = make();
      for (std::size_t i = 0; i < n; ++i) fn(i, scratch);
      return;
    }
    dispatch(n, [&make, &fn](std::size_t begin, std::size_t end) {
      auto scratch = make();
      for (std::size_t i = begin; i < end; ++i) fn(i, scratch);
    });
  }

 private:
  /// Static contiguous chunking (same shape as parallel_for), one chunk
  /// per team member, each running under the dispatching thread's RunObs
  /// slot. Returns once all chunks finish, then rethrows the first failure
  /// in chunk order.
  template <typename Body>
  void dispatch(std::size_t n, Body&& body) const {
#if AGENTNET_OBS_LEVEL >= 1
    obs::count(obs::Counter::kAgentParallelBatches);
    obs::RunObs& slot = obs::current_obs();
#endif
    const std::size_t chunks = std::min(team_->size(), n);
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    team_->run(chunks, [&](std::size_t c) {
#if AGENTNET_OBS_LEVEL >= 1
      obs::ObsRunScope scope(slot);
#endif
      const std::size_t begin = c * base + std::min(c, extra);
      body(begin, begin + base + (c < extra ? 1 : 0));
    });
  }

  std::shared_ptr<ForkJoin> team_;
};

}  // namespace agentnet

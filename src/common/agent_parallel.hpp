// Deterministic intra-run agent parallelism (AGENTNET_AGENT_THREADS).
//
// AgentParallel fans the per-step agent phases — sense, decide,
// group-disjoint exchanges, per-root measurement walks, per-node traffic
// service — over a single process-shared worker pool. It is the intra-run
// counterpart of the per-run engine (common/parallel_for.hpp) and obeys
// the same contract (docs/ARCHITECTURE.md, "Determinism & parallelism"):
//
//   * threads <= 1 (the default) runs the *exact* serial loop on the
//     caller's thread — no pool, no wrappers — so `AGENTNET_AGENT_THREADS`
//     unset reproduces pre-engine behaviour bit for bit.
//   * Parallel bodies follow a two-phase read/commit step: fn(i) reads
//     frozen pre-step state (the graph, stigmergy stamps, pheromone rows)
//     and writes index i's pre-allocated slot; the caller commits slots in
//     index order afterwards. No shared RNG draws and no trace events
//     inside fn — task loops pre-draw fault decisions and replay events
//     serially, so every output byte is identical at any thread count.
//   * Worker chunks run under the caller's RunObs slot (ObsRunScope), so
//     relaxed-atomic counter bumps land in the right replication no matter
//     which pool thread executes them.
//
// All runs share one agent pool (sized on first use): nested parallelism
// — AGENTNET_THREADS runs × AGENTNET_AGENT_THREADS agent batches — queues
// into the same fixed set of workers instead of multiplying thread counts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <future>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "obs/obs_level.hpp"
#include "obs/scope.hpp"

namespace agentnet {

struct AgentParallelConfig {
  /// Worker threads for intra-run agent phases. 1 = the exact serial
  /// path; 0 = one per hardware thread.
  std::size_t threads = 1;

  /// Reads AGENTNET_AGENT_THREADS: unset/empty → 1 (serial), 0 → one per
  /// hardware thread. Mirrors ObsConfig::from_env so task configs embed
  /// it and the environment drives every harness without CLI changes.
  static AgentParallelConfig from_env();
};

namespace detail {
/// The process-shared agent pool, created on first use with `threads`
/// workers (later callers reuse it whatever they ask for).
ThreadPool& agent_pool(std::size_t threads);
/// 0 → hardware concurrency; anything else unchanged.
std::size_t resolve_agent_threads(std::size_t threads);
}  // namespace detail

class AgentParallel {
 public:
  /// Inactive engine: every for_each is the plain serial loop.
  AgentParallel() = default;
  explicit AgentParallel(const AgentParallelConfig& config)
      : threads_(detail::resolve_agent_threads(config.threads)) {
    if (threads_ > 1) pool_ = &detail::agent_pool(threads_);
  }

  std::size_t threads() const { return threads_; }
  /// False selects the exact serial loop in the for_each variants.
  bool active() const { return pool_ != nullptr; }

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
  /// Static contiguous chunking (same shape as parallel_for), each chunk
  /// running under the dispatching thread's RunObs slot. Blocks until all
  /// chunks finish, then rethrows the first failure in chunk order.
  template <typename Body>
  void dispatch(std::size_t n, Body&& body) const {
#if AGENTNET_OBS_LEVEL >= 1
    obs::count(obs::Counter::kAgentParallelBatches);
    obs::RunObs& slot = obs::current_obs();
#endif
    const std::size_t chunks = std::min(threads_, n);
    const std::size_t base = n / chunks;
    const std::size_t extra = n % chunks;
    std::vector<std::future<void>> done;
    done.reserve(chunks);
    std::size_t begin = 0;
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t end = begin + base + (c < extra ? 1 : 0);
      done.push_back(pool_->submit([&body, begin, end
#if AGENTNET_OBS_LEVEL >= 1
                                    ,
                                    &slot
#endif
      ] {
#if AGENTNET_OBS_LEVEL >= 1
        obs::ObsRunScope scope(slot);
#endif
        body(begin, end);
      }));
      begin = end;
    }
    for (auto& f : done) f.wait();
    for (auto& f : done) f.get();
  }

  ThreadPool* pool_ = nullptr;
  std::size_t threads_ = 1;
};

}  // namespace agentnet

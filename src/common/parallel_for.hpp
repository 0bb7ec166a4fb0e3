// Parallel index dispatch by work claiming (parallel_for_claimed) over
// threads started for the call and joined before it returns. The per-step
// agent phases and world upkeep use the run's static-chunk ForkJoin team
// instead (common/fork_join.hpp).
//
// The experiment harness's determinism contract (docs/ARCHITECTURE.md,
// "Determinism & parallelism") only needs indices to be *executed* in any
// order and *combined* in index order; this header provides the execution
// half. fn(i) must be safe to call concurrently for distinct i — in
// practice, each index writes its own pre-allocated slot.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/env.hpp"

namespace agentnet {

/// Runs fn(i) for every i in [0, n) on worker threads that each claim the
/// next unstarted index from a shared counter, so a few long indices
/// (uneven replications) do not leave the other workers idle. `threads` 0
/// resolves AGENTNET_THREADS / hardware_concurrency; when one worker
/// suffices this is the *exact* serial loop `for (i) fn(i)` — no threads —
/// so `AGENTNET_THREADS=1` reproduces the serial behaviour. When several
/// indices throw, the lowest index's exception is rethrown — the one the
/// serial loop stops at. After a failure no new index is claimed: every
/// lower index was claimed already, so that answer cannot change. If a
/// worker cannot be started, the started ones stop claiming, are joined,
/// and the std::thread error propagates.
template <typename Fn>
void parallel_for_claimed(std::size_t n, Fn&& fn, std::size_t threads = 0) {
  std::size_t want = threads == 0 ? default_threads() : threads;
  want = std::min(want, n);
  if (want <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> first_failed{n};
  std::exception_ptr error;
  std::mutex error_mutex;
  const auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n || i > first_failed.load(std::memory_order_relaxed)) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (i < first_failed.load(std::memory_order_relaxed)) {
          first_failed.store(i, std::memory_order_relaxed);
          error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(want);
  try {
    for (std::size_t w = 0; w < want; ++w) workers.emplace_back(work);
  } catch (...) {
    next.store(n, std::memory_order_relaxed);
    for (std::thread& worker : workers) worker.join();
    throw;
  }
  for (std::thread& worker : workers) worker.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace agentnet

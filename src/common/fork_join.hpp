// A fixed fork-join team, one per run, shared by the agent engine and the
// world upkeep (docs/PERFORMANCE.md, "The run's team"): one index range at
// a time, split into static contiguous chunks, one per team member.
//
// The calling thread runs chunk 0 itself and helper h claims chunk h. A job
// is published by bumping an atomic generation counter; after each job the
// helpers spin on it for kSpin, then park in std::atomic::wait, so steps
// that follow each other closely never pay a wake-up and an idle team
// costs no CPU. Once its own chunk is done, the caller also runs every
// chunk whose helper has not claimed it yet: a helper that is still waking,
// or whose core the host has taken away, then holds up no job. Nothing is
// allocated per run(): the job is a function pointer plus a pointer to the
// caller's callable, and each chunk's exception has a slot reserved at
// construction.
//
// Determinism: the team only decides *where* an index runs. Callers write
// one slot per index and combine in index order (docs/ARCHITECTURE.md,
// "Determinism & parallelism"). After every chunk has finished, the lowest
// failing chunk's exception is rethrown; with contiguous chunks that is
// the one the serial loop would have stopped at.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

namespace agentnet {

class ForkJoin {
 public:
  /// How long a waiting member polls before it parks (docs/PERFORMANCE.md
  /// gives the measurement). Helpers wait this long for the next job; the
  /// caller waits this long for chunks that helpers claimed.
  static constexpr std::chrono::microseconds kSpin{200};

  /// A team of `threads` (≥ 1): the caller plus threads − 1 helpers.
  explicit ForkJoin(std::size_t threads);
  /// Wakes and joins the helpers, parked or spinning.
  ~ForkJoin();

  ForkJoin(const ForkJoin&) = delete;
  ForkJoin& operator=(const ForkJoin&) = delete;

  std::size_t size() const { return helpers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n) in min(size(), n) contiguous chunks
  /// and returns once all of them have finished. fn must be safe to call
  /// concurrently for distinct i. One job at a time: run() is not
  /// reentrant and is called from one thread.
  template <class Fn>
  void run(std::size_t n, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    const Body body = [](const void* ctx, std::size_t begin,
                         std::size_t end) {
      F& f = *static_cast<F*>(const_cast<void*>(ctx));
      for (std::size_t i = begin; i < end; ++i) f(i);
    };
    dispatch(n, body, std::addressof(fn));
  }

 private:
  using Body = void (*)(const void* ctx, std::size_t begin, std::size_t end);

  void dispatch(std::size_t n, Body body, const void* ctx);
  void stop_helpers() noexcept;
  /// Takes chunk `chunk` of job `job` if nobody has; the winner runs it.
  bool claim(std::size_t chunk, std::uint32_t job) noexcept;
  /// The job number after `job`. It skips 0 when the generation wraps,
  /// since 0 in open_ means "nothing to claim".
  static constexpr std::uint32_t next_job(std::uint32_t job) {
    return job == UINT32_MAX ? 1 : job + 1;
  }
  void run_chunk(std::size_t chunk) noexcept;
  void helper_loop(std::size_t chunk);

  // The current job; written by the caller before it bumps generation_,
  // read by a helper only once it has claimed a chunk of that job.
  Body body_ = nullptr;
  const void* ctx_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunks_ = 0;
  std::vector<std::exception_ptr> errors_;  ///< One slot per chunk.
  /// Per chunk: the job whose chunk is still unclaimed, else 0. Invariant:
  /// no job is ever numbered 0 (next_job skips it), so a 0 here can never
  /// be claimed.
  std::unique_ptr<std::atomic<std::uint32_t>[]> open_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> generation_{0};
  std::atomic<std::uint32_t> finished_{0};  ///< Chunks helpers completed.
  std::vector<std::thread> helpers_;  // last: they use everything above
};

}  // namespace agentnet

#include "common/fork_join.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace agentnet {
namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Waits until done(a) holds: spins for ForkJoin::kSpin, then parks on the
/// value it last saw. Returns the value that satisfied done. The spin
/// yields the core every 64 polls: with more spinning threads than free
/// cores, a pure busy-wait can keep a team member that still has work off
/// the CPU for a whole scheduler slice.
template <class Done>
std::uint32_t await(const std::atomic<std::uint32_t>& a, Done done) {
  const auto deadline = std::chrono::steady_clock::now() + ForkJoin::kSpin;
  bool spinning = true;
  std::uint32_t v = a.load(std::memory_order_acquire);
  for (unsigned k = 1; !done(v); ++k) {
    if (!spinning) {
      a.wait(v, std::memory_order_acquire);
    } else if (k % 64 != 0) {
      cpu_relax();
    } else {
      std::this_thread::yield();
      spinning = std::chrono::steady_clock::now() < deadline;
    }
    v = a.load(std::memory_order_acquire);
  }
  return v;
}

}  // namespace

ForkJoin::ForkJoin(std::size_t threads) {
  AGENTNET_REQUIRE(threads >= 1, "a fork-join team needs at least 1 thread");
  errors_.resize(threads);
  open_ = std::make_unique<std::atomic<std::uint32_t>[]>(threads);
  helpers_.reserve(threads - 1);
  try {
    for (std::size_t h = 1; h < threads; ++h)
      helpers_.emplace_back([this, h] { helper_loop(h); });
  } catch (...) {
    stop_helpers();  // join the helpers that did start
    throw;
  }
}

ForkJoin::~ForkJoin() { stop_helpers(); }

void ForkJoin::stop_helpers() noexcept {
  stop_.store(true, std::memory_order_relaxed);
  generation_.store(next_job(generation_.load(std::memory_order_relaxed)),
                    std::memory_order_release);
  generation_.notify_all();
  for (std::thread& helper : helpers_) helper.join();
}

void ForkJoin::dispatch(std::size_t n, Body body, const void* ctx) {
  const std::size_t chunks = std::min(size(), n);
  if (chunks <= 1) {
    body(ctx, 0, n);
    return;
  }
  body_ = body;
  ctx_ = ctx;
  n_ = n;
  chunks_ = chunks;
  static_assert(next_job(0) == 1 && next_job(41) == 42 &&
                next_job(UINT32_MAX) == 1);
  const std::uint32_t job =
      next_job(generation_.load(std::memory_order_relaxed));
  for (std::size_t c = 1; c < size(); ++c)
    open_[c].store(c < chunks ? job : 0, std::memory_order_relaxed);
  finished_.store(0, std::memory_order_relaxed);
  generation_.store(job, std::memory_order_release);
  generation_.notify_all();
  run_chunk(0);
  std::uint32_t by_helpers = static_cast<std::uint32_t>(chunks - 1);
  for (std::size_t c = 1; c < chunks; ++c) {
    if (!claim(c, job)) continue;
    run_chunk(c);
    --by_helpers;
  }
  // Only helpers that claimed a chunk of this job ever read it, so once
  // their chunks are done the next job may overwrite it.
  await(finished_, [by_helpers](std::uint32_t done) {
    return done == by_helpers;
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    if (!errors_[c]) continue;
    const std::exception_ptr error = std::exchange(errors_[c], nullptr);
    for (std::size_t rest = c + 1; rest < chunks; ++rest) errors_[rest] = {};
    std::rethrow_exception(error);
  }
}

bool ForkJoin::claim(std::size_t chunk, std::uint32_t job) noexcept {
  return open_[chunk].compare_exchange_strong(job, 0,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed);
}

void ForkJoin::run_chunk(std::size_t chunk) noexcept {
  const std::size_t base = n_ / chunks_;
  const std::size_t extra = n_ % chunks_;
  const std::size_t begin = chunk * base + std::min(chunk, extra);
  const std::size_t end = begin + base + (chunk < extra ? 1 : 0);
  try {
    body_(ctx_, begin, end);
  } catch (...) {
    errors_[chunk] = std::current_exception();
  }
}

void ForkJoin::helper_loop(std::size_t chunk) {
  std::uint32_t seen = 0;
  for (;;) {
    seen = await(generation_, [seen](std::uint32_t g) { return g != seen; });
    if (stop_.load(std::memory_order_relaxed)) return;
    if (!claim(chunk, seen)) continue;
    run_chunk(chunk);
    finished_.fetch_add(1, std::memory_order_release);
    finished_.notify_one();
  }
}

}  // namespace agentnet

// Deterministic, cross-platform random number generation.
//
// The standard library's distribution objects are not guaranteed to produce
// the same sequences across implementations, so agentnet ships its own
// generator (xoshiro256++) and distribution helpers. Every simulation run is
// a pure function of (config, seed); see DESIGN.md §4 "Determinism".
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

/// SplitMix64 — used to expand a single 64-bit seed into generator state and
/// to derive independent child seeds (seed + stream id).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ by Blackman & Vigna. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words from SplitMix64(seed).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Derives an independent generator for a named sub-stream. Used to give
  /// each agent / subsystem its own stream so adding one consumer does not
  /// perturb another's sequence.
  Rng fork(std::uint64_t stream) {
    SplitMix64 sm((*this)() ^ (stream * 0x9e3779b97f4a7c15ULL + 1));
    return Rng(sm.next());
  }

  /// Uniform integer in [0, bound) via Lemire's method. bound must be > 0.
  std::uint64_t uniform(std::uint64_t bound);

  /// Uniform double in [0, 1).
  double uniform01() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform_real(double lo, double hi) {
    return lo + (hi - lo) * uniform01();
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool bernoulli(double p) { return uniform01() < p; }

  /// Standard normal via the polar (Marsaglia) method; deterministic.
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Poisson-distributed count with the given mean (>= 0). Used for
  /// session arrivals in the traffic workload generator; deterministic
  /// (Knuth's product method, chunked so large means stay exact).
  std::uint64_t poisson(double mean);

  /// Uniformly chosen index into a non-empty container of size n.
  std::size_t index(std::size_t n) {
    AGENTNET_ASSERT(n > 0);
    return static_cast<std::size_t>(uniform(n));
  }

  /// Uniformly chosen element of a non-empty span.
  template <typename T>
  const T& pick(std::span<const T> items) {
    AGENTNET_ASSERT(!items.empty());
    return items[index(items.size())];
  }

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::size_t j = index(i);
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Sample k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

  /// Checkpoint support: the full generator state — the four state words
  /// plus the polar method's cached spare — so a restored stream continues
  /// the exact sequence it was saved mid-way through. kStateBytes is what
  /// save_state writes.
  static constexpr std::size_t kStateBytes = 4 * 8 + 1 + 8;
  void save_state(snapshot::ByteWriter& w) const {
    for (std::uint64_t word : s_) w.u64(word);
    w.boolean(have_spare_normal_);
    w.f64(spare_normal_);
  }
  void load_state(snapshot::ByteReader& r) {
    for (std::uint64_t& word : s_) word = r.u64();
    have_spare_normal_ = r.boolean();
    spare_normal_ = r.f64();
  }

 private:
  void reseed(std::uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& w : s_) w = sm.next();
    // All-zero state is the one invalid state; SplitMix64 cannot emit four
    // zeros in a row from any seed, but guard anyway.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
  }

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
  bool have_spare_normal_ = false;
  double spare_normal_ = 0.0;
};

}  // namespace agentnet

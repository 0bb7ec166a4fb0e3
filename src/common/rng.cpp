#include "common/rng.hpp"

#include <cmath>

namespace agentnet {

std::uint64_t Rng::uniform(std::uint64_t bound) {
  AGENTNET_ASSERT(bound > 0);
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double Rng::normal(double mean, double stddev) {
  if (have_spare_normal_) {
    have_spare_normal_ = false;
    return mean + stddev * spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform_real(-1.0, 1.0);
    v = uniform_real(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  have_spare_normal_ = true;
  return mean + stddev * u * factor;
}

std::uint64_t Rng::poisson(double mean) {
  AGENTNET_ASSERT(mean >= 0.0);
  // Sum of independent Poisson draws is Poisson with the summed mean, so
  // chunking keeps exp(-mean) away from underflow at large means while
  // staying exactly the target distribution.
  std::uint64_t total = 0;
  while (mean > 0.0) {
    const double chunk = mean > 16.0 ? 16.0 : mean;
    mean -= chunk;
    const double limit = std::exp(-chunk);
    double product = uniform01();
    while (product > limit) {
      ++total;
      product *= uniform01();
    }
  }
  return total;
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  AGENTNET_ASSERT(k <= n);
  // Floyd's algorithm would avoid the O(n) fill, but n is small everywhere
  // agentnet uses this (node counts in the hundreds); keep it simple.
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + index(n - i);
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace agentnet

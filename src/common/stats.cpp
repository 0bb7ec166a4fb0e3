#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

namespace agentnet {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(count_);
  const double nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = na + nb;
  mean_ += delta * nb / n;
  m2_ += other.m2_ + delta * delta * na * nb / n;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const {
  AGENTNET_ASSERT(count_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::stderr_mean() const {
  if (count_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(count_));
}

double RunningStats::min() const {
  AGENTNET_ASSERT(count_ > 0);
  return min_;
}

double RunningStats::max() const {
  AGENTNET_ASSERT(count_ > 0);
  return max_;
}

namespace {

// Two-sided Student-t critical values by degrees of freedom; rows are df
// 1..30, then the normal limit. Enough accuracy for reporting error bars.
struct TRow {
  double t90, t95, t99;
};

constexpr TRow kTTable[] = {
    {6.314, 12.706, 63.657}, {2.920, 4.303, 9.925},  {2.353, 3.182, 5.841},
    {2.132, 2.776, 4.604},   {2.015, 2.571, 4.032},  {1.943, 2.447, 3.707},
    {1.895, 2.365, 3.499},   {1.860, 2.306, 3.355},  {1.833, 2.262, 3.250},
    {1.812, 2.228, 3.169},   {1.796, 2.201, 3.106},  {1.782, 2.179, 3.055},
    {1.771, 2.160, 3.012},   {1.761, 2.145, 2.977},  {1.753, 2.131, 2.947},
    {1.746, 2.120, 2.921},   {1.740, 2.110, 2.898},  {1.734, 2.101, 2.878},
    {1.729, 2.093, 2.861},   {1.725, 2.086, 2.845},  {1.721, 2.080, 2.831},
    {1.717, 2.074, 2.819},   {1.714, 2.069, 2.807},  {1.711, 2.064, 2.797},
    {1.708, 2.060, 2.787},   {1.706, 2.056, 2.779},  {1.703, 2.052, 2.771},
    {1.701, 2.048, 2.763},   {1.699, 2.045, 2.756},  {1.697, 2.042, 2.750},
};
constexpr TRow kTNormal = {1.645, 1.960, 2.576};

double t_critical(std::size_t df, double level) {
  const TRow& row = (df == 0)   ? kTNormal
                    : (df <= 30) ? kTTable[df - 1]
                                 : kTNormal;
  if (level <= 0.90) return row.t90;
  if (level <= 0.95) return row.t95;
  return row.t99;
}

}  // namespace

double confidence_halfwidth(const RunningStats& stats, double level) {
  if (stats.count() < 2) return 0.0;
  return t_critical(stats.count() - 1, level) * stats.stderr_mean();
}

double quantile(std::vector<double> samples, double q) {
  AGENTNET_REQUIRE(!samples.empty(), "quantile of empty sample");
  AGENTNET_REQUIRE(q >= 0.0 && q <= 1.0, "quantile q outside [0,1]");
  std::sort(samples.begin(), samples.end());
  if (samples.size() == 1) return samples[0];
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] * (1.0 - frac) + samples[hi] * frac;
}

void SeriesAccumulator::add(const std::vector<double>& series) {
  if (cells_.empty()) cells_.resize(series.size());
  AGENTNET_REQUIRE(series.size() == cells_.size(),
                   "series length mismatch in SeriesAccumulator");
  for (std::size_t i = 0; i < series.size(); ++i) cells_[i].add(series[i]);
  ++runs_;
}

std::vector<double> SeriesAccumulator::mean() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = cells_[i].mean();
  return out;
}

std::vector<double> SeriesAccumulator::stddev() const {
  std::vector<double> out(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) out[i] = cells_[i].stddev();
  return out;
}

const RunningStats& SeriesAccumulator::at(std::size_t step) const {
  AGENTNET_ASSERT(step < cells_.size());
  return cells_[step];
}

}  // namespace agentnet

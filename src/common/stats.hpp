// Streaming statistics, quantiles, confidence intervals and time series.
//
// Used by the experiment harness to aggregate the paper's protocol:
// "averaged over a set of 40 different runs of the same parameter set".
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"
#include "snapshot/bytes.hpp"

namespace agentnet {

/// Welford streaming accumulator: count / mean / variance / min / max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  /// Standard error of the mean; 0 for fewer than two samples.
  double stderr_mean() const;
  double min() const;
  double max() const;

  /// Checkpoint support: the exact accumulator bits, so a restored stream
  /// of add() calls produces bit-identical statistics.
  void save_state(snapshot::ByteWriter& w) const {
    w.size(count_);
    w.f64(mean_);
    w.f64(m2_);
    w.f64(min_);
    w.f64(max_);
  }
  void load_state(snapshot::ByteReader& r) {
    count_ = r.size();
    mean_ = r.f64();
    m2_ = r.f64();
    min_ = r.f64();
    max_ = r.f64();
  }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Half-width of a two-sided confidence interval on the mean of `stats`
/// using Student's t (table-interpolated). level in {0.90, 0.95, 0.99}.
double confidence_halfwidth(const RunningStats& stats, double level = 0.95);

/// Quantile of a sample (linear interpolation, q in [0,1]). Copies and
/// sorts; fine for the sample sizes agentnet deals in.
double quantile(std::vector<double> samples, double q);

/// Element-wise accumulator for equal-length time series: feed one series
/// per run, read back per-step mean / stddev, or a step's full stats via
/// at(). Series shorter than the longest seen are an error (experiments
/// produce fixed lengths).
class SeriesAccumulator {
 public:
  SeriesAccumulator() = default;
  explicit SeriesAccumulator(std::size_t length) : cells_(length) {}

  void add(const std::vector<double>& series);

  std::size_t length() const { return cells_.size(); }
  std::size_t runs() const { return runs_; }
  std::vector<double> mean() const;
  std::vector<double> stddev() const;
  const RunningStats& at(std::size_t step) const;

 private:
  std::vector<RunningStats> cells_;
  std::size_t runs_ = 0;
};

}  // namespace agentnet

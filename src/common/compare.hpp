// Principled A-vs-B comparison of run samples: Welch's t-test and effect
// size. The paper draws "X outperforms Y" conclusions from 40-run means;
// this gives the benches (and downstream users) a way to say it with a
// p-value instead of eyeballing two numbers.
#pragma once

#include "common/stats.hpp"

namespace agentnet {

struct Comparison {
  double mean_a = 0.0;
  double mean_b = 0.0;
  double difference = 0.0;        ///< mean_a − mean_b.
  double t_statistic = 0.0;       ///< Welch's t.
  double degrees_of_freedom = 0;  ///< Welch–Satterthwaite.
  /// Two-sided p-value for H0: means equal (normal approximation of the
  /// t distribution, adequate at the df the harness produces).
  double p_value = 1.0;
  /// Cohen's d with pooled standard deviation.
  double effect_size = 0.0;
};

/// Welch's unequal-variance t-test between two independent samples. Both
/// samples need >= 2 observations and nonzero combined variance; with zero
/// variance the comparison degenerates (p = 0 if means differ, else 1).
Comparison compare_samples(const RunningStats& a, const RunningStats& b);

/// Standard normal CDF (used for the p-value; exposed for tests).
double normal_cdf(double z);

}  // namespace agentnet

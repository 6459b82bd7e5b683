#pragma once

/// @file stats.hpp
/// Descriptive statistics used by the experiment harness and tests.

#include <cstddef>
#include <span>
#include <vector>

namespace bis {

/// Streaming accumulator for mean / variance (Welford) plus min/max.
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);

  std::size_t count() const { return n_; }
  double mean() const;
  double variance() const;  ///< Unbiased sample variance; 0 when n < 2.
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

double mean(std::span<const double> xs);
double variance(std::span<const double> xs);
double stddev(std::span<const double> xs);

/// Median; copies the data. Requires a non-empty span.
double median(std::span<const double> xs);

/// Percentile in [0, 100] with linear interpolation between the order
/// statistics a full sort would give. Zeros rank −0.0 before +0.0, so the
/// result is one bit pattern for a given multiset of inputs. Requires
/// non-empty data.
double percentile(std::span<const double> xs, double pct);

/// Root-mean-square of the data.
double rms(std::span<const double> xs);

/// Mean absolute error between two equal-length spans.
double mean_abs_error(std::span<const double> a, std::span<const double> b);

}  // namespace bis

#include "common/stats.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace bis {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::mean() const { return mean_; }

double RunningStats::variance() const {
  return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  BIS_CHECK(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  BIS_CHECK(n_ > 0);
  return max_;
}

double mean(std::span<const double> xs) {
  BIS_CHECK(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double sum = 0.0;
  for (double x : xs) sum += (x - m) * (x - m);
  return sum / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double pct) {
  BIS_CHECK(!xs.empty());
  BIS_CHECK(pct >= 0.0 && pct <= 100.0);
  // Per-thread selection buffer: percentile/median sit on the detector's
  // per-bin hot path, so repeated calls must not allocate once capacity is
  // warm.
  thread_local std::vector<double> buf;
  buf.assign(xs.begin(), xs.end());
  if (buf.size() == 1) return buf.front();
  const double pos = pct / 100.0 * static_cast<double>(buf.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, buf.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // The two order statistics a full sort would place at lo and hi: select
  // rank lo, then rank lo + 1 is the least element after it.
  const auto nth = buf.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(buf.begin(), nth, buf.end());
  double v_lo = *nth;
  double v_hi = hi == lo ? v_lo : *std::min_element(nth + 1, buf.end());
  if (v_lo == 0.0 || v_hi == 0.0) {
    // `<` cannot tell −0.0 from +0.0, so a zero order statistic's sign
    // would depend on the selection algorithm. Rank the zeros as the total
    // order does (−0.0 before +0.0): rank r is −0.0 iff it falls among the
    // negatives and negative zeros.
    std::size_t below = 0;
    for (double x : buf) below += x < 0.0 || (x == 0.0 && std::signbit(x));
    const auto zero_at = [below](std::size_t r) {
      return r < below ? -0.0 : 0.0;
    };
    if (v_lo == 0.0) v_lo = zero_at(lo);
    if (v_hi == 0.0) v_hi = zero_at(hi);
  }
  return v_lo * (1.0 - frac) + v_hi * frac;
}

double rms(std::span<const double> xs) {
  BIS_CHECK(!xs.empty());
  double sum = 0.0;
  for (double x : xs) sum += x * x;
  return std::sqrt(sum / static_cast<double>(xs.size()));
}

double mean_abs_error(std::span<const double> a, std::span<const double> b) {
  BIS_CHECK(a.size() == b.size());
  BIS_CHECK(!a.empty());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) sum += std::abs(a[i] - b[i]);
  return sum / static_cast<double>(a.size());
}

}  // namespace bis

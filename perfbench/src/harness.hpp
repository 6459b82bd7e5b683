#pragma once

/// @file harness.hpp
/// Workload-independent pieces of the repository benchmark: the percentile
/// rules its latency metrics use, the output digest that gates correctness,
/// the host fingerprint and state probe, and the one-line JSON result the
/// benchmark prints last.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------------
// Percentiles.

/// Linear-interpolation quantile (q in [0, 1]) of @p samples; 0 when empty.
double quantile(std::vector<double> samples, double q);

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// A tail percentile and the evidence behind it.
struct Tail {
  double q = 0.0;          ///< Quantile actually reported, in (0, 1].
  double value = 0.0;
  std::size_t beyond = 0;  ///< Samples strictly above the reported rank.
  std::size_t count = 0;   ///< Samples in total.
};

/// The highest nearest-rank percentile, capped at @p target, that still has
/// at least @p min_beyond samples beyond it, but never below the median:
/// with fewer than 2 · min_beyond + 1 samples no tail is resolvable and the
/// upper median sample is reported (with fewer samples beyond it).
Tail tail_quantile(std::vector<double> samples, double target = 0.99,
                   std::size_t min_beyond = 10);

// ---------------------------------------------------------------------------
// Output digest.

/// FNV-1a 64 over a canonical byte encoding of a workload's outputs. Doubles
/// are hashed by bit pattern, strings with their length, so two digests are
/// equal exactly when the encoded outputs are bit-identical.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// ---------------------------------------------------------------------------
// Host and result.

/// Peak resident set of this process (VmHWM), megabytes; 0 if unreadable.
double peak_rss_mb();

/// Median milliseconds of a fixed library kernel on @p lanes busy threads
/// (real FFTs spread by parallel_for over a ThreadPool), after 1.5 s of the
/// same work as warm-up. Taken before and after the timed part
/// of a run, it shows which speed state a shared host was in, and whether
/// that state changed while the run measured.
double host_probe_ms(std::size_t lanes);

/// CPU model, thread count, dispatched SIMD target, precision tier,
/// compiler, flags, @p commit and, when given, the host probe times, as
/// one JSON object.
std::string host_fingerprint_json(const std::string& commit,
                                  const std::vector<double>& probe_ms = {});

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's last output line:
/// {"correct": …, "attempted": …, "failed": …, "metrics": {name: {value, unit}}}.
/// Values keep all 17 significant digits.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics);

}  // namespace perfbench

// Tests for the common substrate: RNG determinism and statistics, unit
// conversions, CSV formatting, precondition checking.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

#include "common/check.hpp"
#include "common/csv.hpp"
#include "common/random.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace bis {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, GaussianMoments) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.03);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.03);
}

TEST(Rng, GaussianScaled) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.06);
}

TEST(Rng, BitsAreBalanced) {
  Rng rng(3);
  const auto bits = rng.bits(10000);
  int ones = 0;
  for (int b : bits) {
    EXPECT_TRUE(b == 0 || b == 1);
    ones += b;
  }
  EXPECT_NEAR(static_cast<double>(ones) / 10000.0, 0.5, 0.03);
}

TEST(Rng, ForkIsIndependent) {
  Rng parent(5);
  Rng child = parent.fork();
  // Child stream differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (parent.next_u64() == child.next_u64()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_index(7), 7u);
}

TEST(RunningStats, MatchesBatchStats) {
  Rng rng(21);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(-1.0, 4.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-10);
}

TEST(RunningStats, MergeEqualsCombined) {
  Rng rng(22);
  RunningStats a, b, all;
  for (int i = 0; i < 300; ++i) {
    const double x = rng.gaussian();
    if (i % 2) a.add(x); else b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Stats, MedianAndPercentile) {
  std::vector<double> xs = {5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 3.0);
}

/// Sort-based percentile: the order statistics of a full sort in the total
/// order (−0.0 before +0.0), interpolated as bis::percentile documents.
double sorted_percentile(std::vector<double> v, double pct) {
  std::sort(v.begin(), v.end(), [](double a, double b) {
    return a < b || (a == b && std::signbit(a) && !std::signbit(b));
  });
  if (v.size() == 1) return v.front();
  const double pos = pct / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

TEST(Stats, PercentileSelectionMatchesSortBitForBit) {
  // Selection (nth_element + min_element) must return the bits a full sort
  // would: sizes 1–130, heavy duplicates, signed zeros, and the percentiles
  // the detector floor (50) and the tag gates (2, 10, 90) read.
  Rng rng(2024);
  const double pcts[] = {0.0, 2.0, 10.0, 50.0, 90.0, 100.0};
  const double pool[] = {-0.0, 0.0, 1.0, -1.0, 2.5, 1e-300, -3.0};
  for (std::size_t n = 1; n <= 130; ++n) {
    for (int kind = 0; kind < 4; ++kind) {
      std::vector<double> v(n);
      for (double& x : v) {
        switch (kind) {
          case 0: x = rng.gaussian(); break;  // distinct values
          case 1: x = pool[rng.uniform_index(7)]; break;  // duplicates, ±0
          case 2: x = rng.uniform_index(2) ? 0.0 : -0.0; break;  // zeros only
          default: x = std::round(rng.gaussian()); break;  // ties, −0.0
        }
      }
      for (double pct : pcts) {
        const double want = sorted_percentile(v, pct);
        const double got = bis::percentile(v, pct);
        EXPECT_EQ(std::memcmp(&want, &got, sizeof got), 0)
            << "n=" << n << " kind=" << kind << " pct=" << pct << ": " << got
            << " vs " << want;
      }
      const double want = sorted_percentile(v, 50.0);
      const double got = bis::median(v);
      EXPECT_EQ(std::memcmp(&want, &got, sizeof got), 0) << "median n=" << n;
    }
  }
}

TEST(Stats, Rms) {
  std::vector<double> xs = {3.0, -4.0};
  EXPECT_NEAR(rms(xs), std::sqrt(12.5), 1e-12);
}

TEST(Units, DbRoundTrip) {
  for (double db : {-30.0, -3.0, 0.0, 10.0, 27.5}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-12);
    EXPECT_NEAR(amplitude_to_db(db_to_amplitude(db)), db, 1e-12);
  }
}

TEST(Units, DbmWatts) {
  EXPECT_NEAR(dbm_to_watts(0.0), 1e-3, 1e-15);
  EXPECT_NEAR(dbm_to_watts(30.0), 1.0, 1e-12);
  EXPECT_NEAR(watts_to_dbm(1e-3), 0.0, 1e-12);
  EXPECT_NEAR(watts_to_dbm(dbm_to_watts(-57.3)), -57.3, 1e-12);
}

TEST(Check, ThrowsOnViolation) {
  EXPECT_THROW(BIS_CHECK(false), std::invalid_argument);
  EXPECT_NO_THROW(BIS_CHECK(true));
  EXPECT_THROW(BIS_CHECK_MSG(1 == 2, "custom message"), std::invalid_argument);
}

TEST(Csv, WritesHeaderAndRows) {
  const auto path = std::filesystem::temp_directory_path() / "bis_csv_test.csv";
  {
    CsvWriter csv(path.string(), {"a", "b"});
    csv.row({1.5, 2.5});
    csv.row_strings({"x", "y"});
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1.5,2.5");
  std::getline(in, line);
  EXPECT_EQ(line, "x,y");
  std::filesystem::remove(path);
}

TEST(Csv, RejectsWrongWidth) {
  const auto path = std::filesystem::temp_directory_path() / "bis_csv_test2.csv";
  CsvWriter csv(path.string(), {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::invalid_argument);
  std::filesystem::remove(path);
}

TEST(Csv, FormatTableAligns) {
  const auto table = format_table({"col", "x"}, {{"1", "2"}, {"333", "4"}});
  EXPECT_NE(table.find("col"), std::string::npos);
  EXPECT_NE(table.find("333"), std::string::npos);
}

TEST(Csv, FormatHelpers) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_scientific(0.00123, 1), "1.2e-03");
}

}  // namespace
}  // namespace bis

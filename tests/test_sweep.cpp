// Sweep-scale Monte-Carlo engine: jump-separated RNG substreams, batched
// Gaussian fills, cached regrid plans, and thread-count-independent sweep
// results (core::SweepRunner).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "common/random.hpp"
#include "core/sweep_runner.hpp"
#include "dsp/resample.hpp"
#include "radar/range_align.hpp"
#include "rf/noise.hpp"

namespace bis {
namespace {

// ---------------------------------------------------------------------------
// Rng::jump() / StreamRng

TEST(StreamRngTest, JumpChangesStateDeterministically) {
  Rng a(123), b(123);
  a.jump();
  EXPECT_NE(a.next_u64(), b.next_u64());  // jumped vs not
  Rng c(123);
  c.jump();
  Rng d(123);
  d.jump();
  EXPECT_EQ(c.next_u64(), d.next_u64());  // jump itself is deterministic
}

TEST(StreamRngTest, StreamsMatchIterativeJumping) {
  // SweepRunner derives substreams by walking one generator and jumping
  // once per point; StreamRng::stream(i) must agree with that walk.
  const StreamRng streams(77);
  Rng walker(77);
  for (std::uint64_t i = 0; i < 5; ++i) {
    Rng s = streams.stream(i);
    Rng w = walker;
    for (int d = 0; d < 8; ++d) EXPECT_EQ(s.next_u64(), w.next_u64()) << i;
    walker.jump();
  }
}

TEST(StreamRngTest, AdjacentStreamsDoNotOverlap) {
  // 2^128-step jumps guarantee disjoint substreams; empirically check that
  // a million draws from adjacent streams (and from fork()-derived streams)
  // share no values. Collisions of truly independent 64-bit streams at this
  // sample size are ~1e-8 likely, so an intersection means real overlap.
  constexpr std::size_t kDraws = 500000;
  const StreamRng streams(2026);
  Rng s0 = streams.stream(0);
  Rng s1 = streams.stream(1);
  Rng forked = streams.stream(0).fork();

  std::vector<std::uint64_t> a(kDraws), b(kDraws), c(kDraws);
  for (std::size_t i = 0; i < kDraws; ++i) a[i] = s0.next_u64();
  for (std::size_t i = 0; i < kDraws; ++i) b[i] = s1.next_u64();
  for (std::size_t i = 0; i < kDraws; ++i) c[i] = forked.next_u64();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  std::sort(c.begin(), c.end());

  std::vector<std::uint64_t> overlap;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty()) << overlap.size() << " shared draws (jump)";
  overlap.clear();
  std::set_intersection(a.begin(), a.end(), c.begin(), c.end(),
                        std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty()) << overlap.size() << " shared draws (fork)";
}

// ---------------------------------------------------------------------------
// Rng::fill_gaussian (ziggurat)

TEST(GaussianFillTest, MomentsMatchStandardNormal) {
  Rng rng(9001);
  std::vector<double> x(1000000);
  rng.fill_gaussian(x);

  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(x.size());
  double var = 0.0, skew = 0.0, kurt = 0.0;
  std::size_t beyond3 = 0;
  for (double v : x) {
    const double d = v - mean;
    var += d * d;
    skew += d * d * d;
    kurt += d * d * d * d;
    if (std::abs(v) > 3.0) ++beyond3;
  }
  var /= static_cast<double>(x.size());
  skew /= static_cast<double>(x.size()) * var * std::sqrt(var);
  kurt /= static_cast<double>(x.size()) * var * var;

  EXPECT_NEAR(mean, 0.0, 0.01);
  EXPECT_NEAR(var, 1.0, 0.02);
  EXPECT_NEAR(skew, 0.0, 0.02);
  EXPECT_NEAR(kurt, 3.0, 0.1);
  // P(|Z| > 3) = 0.0027: the ziggurat tail path must actually fire.
  EXPECT_NEAR(static_cast<double>(beyond3) / static_cast<double>(x.size()),
              0.0027, 0.0006);
}

TEST(GaussianFillTest, ScaledOverloadAndDeterminism) {
  Rng a(5), b(5);
  std::vector<double> xa(4096), xb(4096);
  a.fill_gaussian(xa, 2.0, 3.0);
  b.fill_gaussian(xb);
  for (std::size_t i = 0; i < xa.size(); ++i)
    EXPECT_DOUBLE_EQ(xa[i], 2.0 + 3.0 * xb[i]) << i;

  double mean = 0.0;
  for (double v : xa) mean += v;
  mean /= static_cast<double>(xa.size());
  EXPECT_NEAR(mean, 2.0, 0.2);
}

TEST(GaussianFillTest, InterleavingWithScalarGaussianIsDeterministic) {
  // fill_gaussian bypasses the Box–Muller cache; mixing the two APIs must
  // stay reproducible for a given seed.
  Rng a(31), b(31);
  std::vector<double> buf_a(64), buf_b(64);
  const double ga1 = a.gaussian();
  a.fill_gaussian(buf_a);
  const double ga2 = a.gaussian();
  const double gb1 = b.gaussian();
  b.fill_gaussian(buf_b);
  const double gb2 = b.gaussian();
  EXPECT_DOUBLE_EQ(ga1, gb1);
  EXPECT_DOUBLE_EQ(ga2, gb2);
  for (std::size_t i = 0; i < buf_a.size(); ++i)
    EXPECT_DOUBLE_EQ(buf_a[i], buf_b[i]);
}

TEST(GaussianFillTest, StatsCount) {
  const auto before = gaussian_fill_stats();
  Rng rng(1);
  std::vector<double> x(1000);
  rng.fill_gaussian(x);
  const auto after = gaussian_fill_stats();
  EXPECT_EQ(after.samples - before.samples, 1000u);
  EXPECT_EQ(after.calls - before.calls, 1u);
}

// ---------------------------------------------------------------------------
// RegridPlan

TEST(RegridPlanTest, BitParityWithRegridLinear) {
  Rng rng(7);
  // Non-uniform strictly increasing source axis.
  std::vector<double> x(64);
  double acc = 0.0;
  for (auto& v : x) {
    acc += 0.1 + rng.uniform();
    v = acc;
  }
  std::vector<double> y(x.size());
  for (auto& v : y) v = rng.gaussian();
  std::vector<dsp::cdouble> yc(x.size());
  for (auto& v : yc) v = {rng.gaussian(), rng.gaussian()};

  // Queries spanning below, inside, and above the axis (clamp paths).
  std::vector<double> xq;
  for (double q = x.front() - 2.0; q < x.back() + 2.0; q += 0.37) xq.push_back(q);

  const dsp::RegridPlan plan(x, xq);
  ASSERT_EQ(plan.n_queries(), xq.size());
  ASSERT_EQ(plan.n_source(), x.size());

  const auto ref = dsp::regrid_linear(x, y, xq);
  std::vector<double> got(xq.size());
  plan.apply(y, got);
  for (std::size_t i = 0; i < xq.size(); ++i) EXPECT_EQ(got[i], ref[i]) << i;

  const auto ref_c = dsp::regrid_linear(x, yc, xq);
  std::vector<dsp::cdouble> got_c(xq.size());
  plan.apply(yc, got_c);
  for (std::size_t i = 0; i < xq.size(); ++i) EXPECT_EQ(got_c[i], ref_c[i]) << i;
}

TEST(RegridPlanTest, UniformAxisParity) {
  const auto x = dsp::linspace(0.0, 10.0, 101);
  const auto xq = dsp::linspace(-1.0, 11.0, 257);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < y.size(); ++i) y[i] = std::sin(0.3 * static_cast<double>(i));
  const dsp::RegridPlan plan(x, xq);
  std::vector<double> got(xq.size());
  plan.apply(y, got);
  const auto ref = dsp::regrid_linear(x, y, xq);
  for (std::size_t i = 0; i < xq.size(); ++i) EXPECT_EQ(got[i], ref[i]) << i;
}

TEST(RegridPlanTest, CacheHitsAndClear) {
  dsp::regrid_plan_cache_clear();
  const auto x = dsp::linspace(0.0, 1.0, 16);
  const auto xq = dsp::linspace(0.0, 1.0, 32);
  const auto p1 = dsp::cached_regrid_plan(x, xq);
  const auto p2 = dsp::cached_regrid_plan(x, xq);
  EXPECT_EQ(p1.get(), p2.get());  // shared stencil
  auto stats = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.plans, 1u);

  // A bitwise-different axis is a different key.
  auto x2 = x;
  x2[3] = std::nextafter(x2[3], 2.0);
  const auto p3 = dsp::cached_regrid_plan(x2, xq);
  EXPECT_NE(p1.get(), p3.get());
  stats = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);

  dsp::regrid_plan_cache_clear();
  stats = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.plans, 0u);
}

// ---------------------------------------------------------------------------
// AlignedProfiles span overloads

TEST(RangeAlignScratchTest, ColumnSpanOverloadsMatchAllocating) {
  radar::AlignedProfiles p;
  p.range_grid = {0.0, 1.0, 2.0};
  Rng rng(11);
  for (int m = 0; m < 4; ++m) {
    dsp::CVec row(3);
    for (auto& v : row) v = {rng.gaussian(), rng.gaussian()};
    p.rows.push_back(std::move(row));
  }
  for (std::size_t bin = 0; bin < p.n_bins(); ++bin) {
    const auto mag = p.column_magnitude(bin);
    const auto col = p.column(bin);
    std::vector<double> mag_span(p.n_chirps());
    std::vector<dsp::cdouble> col_span(p.n_chirps());
    p.column_magnitude(bin, mag_span);
    p.column(bin, col_span);
    for (std::size_t m = 0; m < p.n_chirps(); ++m) {
      EXPECT_EQ(mag[m], mag_span[m]);
      EXPECT_EQ(col[m], col_span[m]);
    }
  }
}

TEST(RangeAlignScratchTest, SubtractBackgroundZeroesBackgroundRow) {
  radar::AlignedProfiles p;
  p.range_grid = {0.0, 1.0};
  p.rows = {{{1.0, 2.0}, {3.0, -1.0}},
            {{0.5, 0.5}, {1.0, 1.0}},
            {{-2.0, 0.0}, {0.0, 4.0}}};
  const auto rows_before = p.rows;
  radar::subtract_background(p, 1);
  for (std::size_t i = 0; i < p.rows[1].size(); ++i)
    EXPECT_EQ(p.rows[1][i], dsp::cdouble(0.0, 0.0));
  for (std::size_t r : {std::size_t{0}, std::size_t{2}}) {
    for (std::size_t i = 0; i < p.rows[r].size(); ++i)
      EXPECT_EQ(p.rows[r][i], rows_before[r][i] - rows_before[1][i]);
  }
}

// ---------------------------------------------------------------------------
// SweepRunner determinism

core::SweepOptions small_uplink_options(std::size_t threads) {
  core::SweepOptions opts;
  opts.mode = core::SweepMode::kUplink;
  opts.master_seed = 314;
  opts.threads = threads;
  opts.workload.frames = 1;
  opts.workload.bits_per_frame = 4;
  opts.workload.downlink_active = true;
  return opts;
}

std::vector<core::SweepPoint> small_grid() {
  core::SystemConfig base;
  base.tag.node.uplink.chirps_per_symbol = 32;
  const std::vector<double> ranges = {1.5, 3.0};
  return core::range_sweep_grid(base, ranges, /*repeats=*/2);
}

TEST(SweepDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto grid = small_grid();
  const auto r1 = core::SweepRunner(small_uplink_options(1)).run(grid);
  const auto r2 = core::SweepRunner(small_uplink_options(2)).run(grid);
  const auto r4 = core::SweepRunner(small_uplink_options(4)).run(grid);

  ASSERT_EQ(r1.points.size(), grid.size());
  ASSERT_EQ(r2.points.size(), grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_EQ(r1.points[i].point_seed, r2.points[i].point_seed);
    EXPECT_EQ(r1.points[i].uplink.ber, r2.points[i].uplink.ber);
    EXPECT_EQ(r1.points[i].uplink.mean_snr_processed_db,
              r2.points[i].uplink.mean_snr_processed_db);
    EXPECT_EQ(r1.points[i].uplink.mean_range_error_m,
              r2.points[i].uplink.mean_range_error_m);
  }
  // The JSON is the full determinism surface (every metric, 17 digits).
  EXPECT_EQ(core::sweep_to_json(r1), core::sweep_to_json(r2));
  EXPECT_EQ(core::sweep_to_json(r1), core::sweep_to_json(r4));
}

TEST(SweepDeterminism, RepeatsGetDistinctSubstreams) {
  const auto grid = small_grid();
  const auto r = core::SweepRunner(small_uplink_options(1)).run(grid);
  // Points 0/1 share a config but must draw different seeds (jump-separated
  // substreams), so repeats are independent Monte-Carlo trials.
  EXPECT_NE(r.points[0].point_seed, r.points[1].point_seed);
  EXPECT_NE(r.points[2].point_seed, r.points[3].point_seed);
}

TEST(SweepDeterminism, ReportAggregatesOutcomes) {
  const auto grid = small_grid();
  const auto regrid0 = dsp::regrid_plan_cache_stats();
  const std::uint64_t awgn0 = rf::awgn_samples_added();
  const auto r = core::SweepRunner(small_uplink_options(1)).run(grid);
  const auto regrid1 = dsp::regrid_plan_cache_stats();
  EXPECT_EQ(r.report.uplink_frames, grid.size() * 1u);
  EXPECT_EQ(r.report.detection_attempts, grid.size() * 1u);
  // The sweep exercises the regrid path on every frame; the process-wide
  // plan cache must have seen traffic and the batched AWGN counter must
  // have advanced.
  EXPECT_GT(regrid1.hits + regrid1.misses, regrid0.hits + regrid0.misses);
  EXPECT_GT(rf::awgn_samples_added(), awgn0);
}

/// Every point of @p grid run on its own, as SweepRunner derives it (stream
/// i = master seed after i jumps, cfg.seed drawn from it, the shared-
/// alphabet simulator driven through the sweep form of measure_*), with the
/// simulators' reports merged in grid order.
obs::RunReport standalone_report(const core::SweepOptions& opts,
                                 const std::vector<core::SweepPoint>& grid) {
  obs::RunReport merged;
  Rng walker(opts.master_seed);
  const core::SweepWorkload& w = opts.workload;
  for (const auto& point : grid) {
    Rng stream = walker;
    walker.jump();
    core::SystemConfig cfg = point.config;
    cfg.seed = stream.next_u64();
    cfg.dsp_threads = 1;
    const phy::SlopeAlphabet alphabet = cfg.make_alphabet();
    core::LinkSimulator sim(cfg, alphabet);
    switch (opts.mode) {
      case core::SweepMode::kDownlinkBer:
        core::measure_downlink_ber(sim, w.min_bits, w.payload_bits, stream);
        break;
      case core::SweepMode::kUplink:
        core::measure_uplink(sim, w.frames, w.bits_per_frame, w.downlink_active,
                             stream);
        break;
      case core::SweepMode::kLocalization:
        core::measure_localization(sim, w.frames, w.downlink_active, stream);
        break;
      case core::SweepMode::kIntegrated:
        core::measure_integrated(sim, w.frames, w.payload_bits, w.uplink_bits,
                                 stream);
        break;
    }
    merged.merge(sim.report());
  }
  return merged;
}

TEST(SweepDeterminism, ReportIsMergedSimulatorReports) {
  const auto grid = small_grid();

  core::SweepOptions downlink;
  downlink.mode = core::SweepMode::kDownlinkBer;
  downlink.master_seed = 271;
  downlink.threads = 2;
  downlink.workload.min_bits = 240;
  downlink.workload.payload_bits = 120;
  const auto d = core::SweepRunner(downlink).run(grid);
  EXPECT_EQ(d.report.outcome_key(), standalone_report(downlink, grid).outcome_key());
  EXPECT_GT(d.report.sync_attempts, 0u);
  EXPECT_EQ(d.report.crc_attempts, d.report.sync_attempts);

  const core::SweepOptions uplink = small_uplink_options(2);
  const auto u = core::SweepRunner(uplink).run(grid);
  EXPECT_EQ(u.report.outcome_key(), standalone_report(uplink, grid).outcome_key());
  EXPECT_GT(u.report.chirps_processed, 0u);

  // Integrated points carry the dropped-reply-bits counter, which
  // outcome_key() leaves out, so it is compared on its own.
  core::SweepOptions isac;
  isac.mode = core::SweepMode::kIntegrated;
  isac.master_seed = 99;
  isac.threads = 2;
  isac.workload.frames = 2;
  isac.workload.payload_bits = 80;
  const auto g = core::SweepRunner(isac).run(grid);
  const obs::RunReport g_ref = standalone_report(isac, grid);
  EXPECT_EQ(g.report.outcome_key(), g_ref.outcome_key());
  EXPECT_EQ(g.report.uplink_bits_dropped, g_ref.uplink_bits_dropped);
  EXPECT_EQ(g.report.uplink_bits + g.report.uplink_bits_dropped,
            grid.size() * isac.workload.frames * isac.workload.uplink_bits);
}

}  // namespace
}  // namespace bis

// SIMD kernel layer: bit-identity of every kernel across all available
// dispatch targets, against independent scalar references written here (not
// the library's own scalar backend). Covers empty spans, length 1, lane
// width ± 1, misaligned sub-spans, and end-to-end LinkSimulator frame parity.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "core/link_simulator.hpp"
#include "dsp/fft.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/types.hpp"
#include "dsp/window.hpp"
#include "radar/tag_detector.hpp"

namespace bis::dsp::kernels {
namespace {

// ---------------------------------------------------------------------------
// Deterministic data + bitwise comparison helpers

/// Deterministic pseudo-random doubles in roughly [-1, 1): an LCG so the test
/// owns its data (no RNG library dependence, identical on every platform).
double det(std::uint64_t i) {
  std::uint64_t s = i * 6364136223846793005ull + 1442695040888963407ull;
  s ^= s >> 33;
  return static_cast<double>(static_cast<std::int64_t>(s)) / 9.3e18;
}

RVec det_real(std::size_t n, std::uint64_t salt = 0) {
  RVec v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = det(i + 1000 * salt);
  return v;
}

CVec det_complex(std::size_t n, std::uint64_t salt = 0) {
  CVec v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = cdouble(det(2 * i + 1000 * salt), det(2 * i + 1 + 1000 * salt));
  return v;
}

::testing::AssertionResult bits_eq(std::span<const double> a,
                                   std::span<const double> b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) != std::bit_cast<std::uint64_t>(b[i]))
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i]
             << " (bit patterns differ)";
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult bits_eq(std::span<const cdouble> a,
                                   std::span<const cdouble> b) {
  return bits_eq(
      std::span<const double>(reinterpret_cast<const double*>(a.data()), 2 * a.size()),
      std::span<const double>(reinterpret_cast<const double*>(b.data()), 2 * b.size()));
}

::testing::AssertionResult bits_eq(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) != std::bit_cast<std::uint64_t>(b))
    return ::testing::AssertionFailure() << a << " vs " << b << " (bits differ)";
  return ::testing::AssertionSuccess();
}

// ---------------------------------------------------------------------------
// Independent references (NOT the library's scalar backend)

RVec ref_mag(std::span<const cdouble> x) {
  RVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = std::sqrt(x[i].real() * x[i].real() + x[i].imag() * x[i].imag());
  return out;
}

RVec ref_norm(std::span<const cdouble> x) {
  RVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
  return out;
}

RVec ref_mag_db(std::span<const cdouble> x, double floor_db) {
  RVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    // Mirrors the kernel's hoisted form: 10·log10(n) = (10/ln 10)·ln(n).
    const double n = x[i].real() * x[i].real() + x[i].imag() * x[i].imag();
    constexpr double kTenOverLn10 = 4.342944819032518;
    out[i] =
        n > 0.0 ? std::max(kTenOverLn10 * std::log(n), floor_db) : floor_db;
  }
  return out;
}

CVec ref_cmul(std::span<const cdouble> a, std::span<const cdouble> b) {
  CVec out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double ar = a[i].real(), ai = a[i].imag();
    const double br = b[i].real(), bi = b[i].imag();
    out[i] = cdouble(ar * br - ai * bi, ar * bi + ai * br);
  }
  return out;
}

/// The documented normative reduction: 4 independent accumulators over full
/// blocks combined as (acc0 + acc1) + (acc2 + acc3), sequential tail.
double ref_blocked_dot(std::span<const double> x, std::span<const double> y) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  const std::size_t n4 = x.size() - x.size() % 4;
  for (std::size_t i = 0; i < n4; i += 4)
    for (std::size_t j = 0; j < 4; ++j) acc[j] += x[i + j] * y[i + j];
  double sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  for (std::size_t i = n4; i < x.size(); ++i) sum += x[i] * y[i];
  return sum;
}

double ref_blocked_sum_sq(std::span<const double> x) { return ref_blocked_dot(x, x); }

// ---------------------------------------------------------------------------
// Target iteration

std::vector<SimdTarget> available_targets() {
  std::vector<SimdTarget> out;
  for (SimdTarget t : {SimdTarget::kScalar, SimdTarget::kSse2, SimdTarget::kAvx2})
    if (target_available(t)) out.push_back(t);
  return out;
}

/// Restores the pre-test dispatch target (dispatch state is process-global).
class SimdKernels : public ::testing::Test {
 protected:
  void TearDown() override { set_target(saved_); }
  SimdTarget saved_ = active_target();
};

const std::size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 1000};

}  // namespace

TEST_F(SimdKernels, ScalarAlwaysAvailable) {
  EXPECT_TRUE(target_available(SimdTarget::kScalar));
  EXPECT_TRUE(set_target(SimdTarget::kScalar));
  EXPECT_EQ(active_target(), SimdTarget::kScalar);
  EXPECT_STREQ(target_name(SimdTarget::kScalar), "scalar");
}

TEST_F(SimdKernels, NameBasedOverride) {
  EXPECT_TRUE(set_target("scalar"));
  EXPECT_TRUE(set_target("off"));  // alias
  EXPECT_EQ(active_target(), SimdTarget::kScalar);
  EXPECT_FALSE(set_target("avx512"));
  EXPECT_FALSE(set_target(""));
  EXPECT_EQ(active_target(), SimdTarget::kScalar);  // unchanged on failure
}

TEST_F(SimdKernels, ElementwiseKernelsMatchReferenceOnAllTargets) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t n : kSizes) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const auto xc = det_complex(n, 1);
      const auto yc = det_complex(n, 2);
      const auto xr = det_real(n, 3);
      const auto w = det_real(n, 4);

      RVec out(n);
      kmag(xc, out);
      EXPECT_TRUE(bits_eq(out, ref_mag(xc)));
      knorm(xc, out);
      EXPECT_TRUE(bits_eq(out, ref_norm(xc)));
      kmag_db(xc, out, -300.0);
      EXPECT_TRUE(bits_eq(out, ref_mag_db(xc, -300.0)));

      kapply_window(xr, w, out);
      {
        RVec ref(n);
        for (std::size_t i = 0; i < n; ++i) ref[i] = xr[i] * w[i];
        EXPECT_TRUE(bits_eq(out, ref));
      }
      CVec outc(n);
      kapply_window(xc, w, outc);
      {
        CVec ref(n);
        for (std::size_t i = 0; i < n; ++i)
          ref[i] = cdouble(xc[i].real() * w[i], xc[i].imag() * w[i]);
        EXPECT_TRUE(bits_eq(outc, ref));
      }

      kcmul(xc, yc, outc);
      EXPECT_TRUE(bits_eq(outc, ref_cmul(xc, yc)));

      {
        RVec y = det_real(n, 5);
        RVec ref = y;
        kaxpy(0.37, xr, y);
        for (std::size_t i = 0; i < n; ++i) ref[i] += 0.37 * xr[i];
        EXPECT_TRUE(bits_eq(y, ref));
      }
      {
        RVec y = det_real(n, 6);
        RVec ref = y;
        kscale_add(y, 1.75, 0.37, xr);
        for (std::size_t i = 0; i < n; ++i) ref[i] = 1.75 * (ref[i] + 0.37 * xr[i]);
        EXPECT_TRUE(bits_eq(y, ref));
      }
      {
        RVec y = det_real(n, 7);
        RVec ref = y;
        kscale(std::span<double>(y), 0.731);
        for (double& v : ref) v *= 0.731;
        EXPECT_TRUE(bits_eq(y, ref));
      }
      {
        CVec y = det_complex(n, 8);
        CVec ref = y;
        kscale(std::span<cdouble>(y), 0.731);
        for (auto& v : ref) v = cdouble(v.real() * 0.731, v.imag() * 0.731);
        EXPECT_TRUE(bits_eq(std::span<const cdouble>(y), std::span<const cdouble>(ref)));
      }
    }
  }
}

namespace {

/// Inputs for kcabs: random pairs with exponents in ±40 and random signs,
/// mixed with every class glibc's hypot treats apart, shuffled so each class
/// lands in every lane of a block.
CVec cabs_inputs() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double sub = std::numeric_limits<double>::denorm_min();
  const auto up = [](double v) { return std::nextafter(v, 1e308); };
  const auto down = [](double v) { return std::nextafter(v, 0.0); };
  std::vector<cdouble> v = {
      // ±0, one component zero, equal components.
      {0.0, 0.0}, {-0.0, 0.0}, {0.0, -0.0}, {-0.0, -0.0}, {0.75, 0.0},
      {0.0, -3.5}, {-0.0, 1e-300}, {2.5, 2.5}, {-1e-7, 1e-7},
      // Subnormals.
      {sub, 0.0}, {sub, 1.0}, {3e-310, 4e-310}, {1e-310, 1e-300},
      // ax on both sides of 2^511, ay on both sides of 2^-511.
      {0x1p511, 1.0}, {up(0x1p511), 1.0}, {down(0x1p511), 0x1p500},
      {0x1p-511, 0x1p-500}, {down(0x1p-511), 0x1p-500},
      {up(0x1p-511), 0x1p-500}, {0x1p-511, 0x1p-511}, {1e308, 1e308},
      // Infinities and NaNs, alone and together.
      {inf, 1.0}, {1.0, -inf}, {nan, 1.0}, {1.0, nan}, {inf, nan},
      {nan, -inf}, {nan, nan}};
  // ay on both sides of ax·2^-54 (exact: a power-of-two scale).
  for (double ax : {1.3, 0.9, 7.1e-3}) {
    const double edge = ax * 0x1p-54;
    v.insert(v.end(), {{ax, edge}, {ax, up(edge)}, {-down(edge), ax}});
  }
  // h on both sides of 2·ay: the branch boundary sits near ay = ax/√3.
  for (std::uint64_t k = 0; k < 64; ++k) {
    const double ax = std::ldexp(1.0 + std::abs(det(k + 500)), int(k % 9) - 4);
    double ay = ax / std::sqrt(3.0);
    for (int step = 0; step < 4; ++step) ay = down(ay);
    for (int step = 0; step < 9; ++step, ay = up(ay)) v.push_back({ax, ay});
  }
  for (std::uint64_t k = 0; k < 4000; ++k) {
    const auto part = [&](std::uint64_t i) {
      const double m = det(i);
      const int e = static_cast<int>(std::bit_cast<std::uint64_t>(m) % 81) - 40;
      return std::ldexp(m, e);
    };
    v.push_back({part(2 * k + 7000), part(2 * k + 7001)});
  }
  // Deterministic Fisher-Yates shuffle.
  for (std::size_t i = v.size() - 1; i > 0; --i)
    std::swap(v[i], v[std::bit_cast<std::uint64_t>(det(i + 20000)) % (i + 1)]);
  return CVec(v.begin(), v.end());
}

bool same_bytes(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size_bytes()) == 0);
}

}  // namespace

TEST_F(SimdKernels, CabsMatchesStdAbsBitForBit) {
  // Every length 0–37 (full blocks plus each tail length), at offsets that
  // walk the whole input pool, on every target.
  const CVec pool = cabs_inputs();
  RVec want(pool.size());
  set_target(SimdTarget::kScalar);
  if (kCabsMatchesStdAbs)
    for (std::size_t i = 0; i < pool.size(); ++i) want[i] = std::abs(pool[i]);
  else
    kcabs(pool, want);
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    RVec got(pool.size());
    kcabs(pool, got);
    for (std::size_t i = 0; i < pool.size(); ++i)
      ASSERT_TRUE(same_bytes({&got[i], 1}, {&want[i], 1}))
          << "x = (" << pool[i].real() << ", " << pool[i].imag() << "): "
          << got[i] << " vs " << want[i];
    for (std::size_t n = 0; n <= 37; ++n) {
      for (std::size_t off = 0; off + n <= pool.size(); off += n + 3) {
        RVec out(n);
        kcabs(std::span<const cdouble>(pool).subspan(off, n), out);
        const auto ref = std::span<const double>(want).subspan(off, n);
        ASSERT_TRUE(same_bytes(out, ref)) << "n=" << n << " off=" << off;
      }
    }
  }
  if (!kCabsMatchesStdAbs)
    GTEST_SKIP() << "libm is not glibc >= 2.35: kcabs was checked for "
                    "cross-target parity only, not against std::abs";
}

TEST_F(SimdKernels, ReductionsMatchLaneBlockedReferenceOnAllTargets) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t n : kSizes) {
      SCOPED_TRACE("n=" + std::to_string(n));
      const auto x = det_real(n, 11);
      const auto y = det_real(n, 12);
      EXPECT_TRUE(bits_eq(ksum_sq(std::span<const double>(x)), ref_blocked_sum_sq(x)));
      EXPECT_TRUE(bits_eq(kdot(x, y), ref_blocked_dot(x, y)));
      // Complex sum of squares reduces the interleaved 2n reals.
      const auto xc = det_complex(n, 13);
      const std::span<const double> flat(
          reinterpret_cast<const double*>(xc.data()), 2 * n);
      EXPECT_TRUE(bits_eq(ksum_sq(std::span<const cdouble>(xc)),
                          ref_blocked_sum_sq(flat)));
    }
  }
}

TEST_F(SimdKernels, SubSpansAtEveryAlignmentOffset) {
  // Kernels must not depend on 16/32-byte alignment: slice a big buffer at
  // offsets 0..3 with lengths around the lane width.
  const auto base_c = det_complex(64, 21);
  const auto base_r = det_real(64, 22);
  const auto base_w = det_real(64, 23);
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t off = 0; off < 4; ++off) {
      for (std::size_t len : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                              std::size_t{5}, std::size_t{8}, std::size_t{9}}) {
        SCOPED_TRACE("off=" + std::to_string(off) + " len=" + std::to_string(len));
        const auto xc = std::span<const cdouble>(base_c).subspan(off, len);
        const auto xr = std::span<const double>(base_r).subspan(off, len);
        const auto w = std::span<const double>(base_w).subspan(off, len);
        RVec out(len);
        kmag(xc, out);
        EXPECT_TRUE(bits_eq(out, ref_mag(xc)));
        kapply_window(xr, w, out);
        RVec ref(len);
        for (std::size_t i = 0; i < len; ++i) ref[i] = xr[i] * w[i];
        EXPECT_TRUE(bits_eq(out, ref));
        EXPECT_TRUE(bits_eq(kdot(xr, w), ref_blocked_dot(xr, w)));
      }
    }
  }
}

TEST_F(SimdKernels, ApplyWindowSupportsAliasedOutput) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    RVec x = det_real(37, 31);
    const auto w = det_real(37, 32);
    RVec ref(37);
    for (std::size_t i = 0; i < 37; ++i) ref[i] = x[i] * w[i];
    kapply_window(x, w, x);  // in place
    EXPECT_TRUE(bits_eq(x, ref));
    CVec xc = det_complex(37, 33);
    CVec refc(37);
    for (std::size_t i = 0; i < 37; ++i)
      refc[i] = cdouble(xc[i].real() * w[i], xc[i].imag() * w[i]);
    kapply_window(xc, w, xc);
    EXPECT_TRUE(bits_eq(std::span<const cdouble>(xc), std::span<const cdouble>(refc)));
  }
}

TEST_F(SimdKernels, GoertzelMatchesScalarRecurrenceOnAllTargets) {
  const auto x = det_real(257, 41);
  // 6 frequencies: one full lane block + a 2-wide remainder.
  RVec coeffs(6);
  for (std::size_t j = 0; j < coeffs.size(); ++j)
    coeffs[j] = 2.0 * std::cos(0.1 + 0.37 * static_cast<double>(j));
  RVec ref_s1(coeffs.size(), 0.0), ref_s2(coeffs.size(), 0.0);
  for (std::size_t j = 0; j < coeffs.size(); ++j) {
    double s1 = 0.0, s2 = 0.0;
    for (double sample : x) {
      const double s = (sample + coeffs[j] * s1) - s2;
      s2 = s1;
      s1 = s;
    }
    ref_s1[j] = s1;
    ref_s2[j] = s2;
  }
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    RVec s1(coeffs.size(), 0.0), s2(coeffs.size(), 0.0);
    kgoertzel(x, coeffs, s1, s2);
    EXPECT_TRUE(bits_eq(s1, ref_s1));
    EXPECT_TRUE(bits_eq(s2, ref_s2));
  }
}

TEST_F(SimdKernels, GoertzelBankMatchesSingleBinEvaluator) {
  const auto x = det_real(200, 42);
  const std::vector<double> freqs = {100.0, 250.0, 333.0, 420.0, 490.0};
  const double fs = 2000.0;
  const GoertzelBank bank(freqs, fs);
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    const auto p = bank.powers(x);
    ASSERT_EQ(p.size(), freqs.size());
    for (std::size_t j = 0; j < freqs.size(); ++j)
      EXPECT_TRUE(bits_eq(p[j], goertzel_power(x, freqs[j], fs)));
  }
}

TEST_F(SimdKernels, MagnitudeDbMatchesOldSqrtDefinition) {
  // Satellite guard: 10·log10(|x|²) must agree with the old 20·log10(|x|)
  // to floating-point tolerance everywhere above the floor.
  const auto x = det_complex(512, 51);
  const auto now = magnitude_db(x, -300.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double old = std::max(20.0 * std::log10(std::abs(x[i])), -300.0);
    EXPECT_NEAR(now[i], old, 1e-9) << "element " << i;
  }
}

TEST_F(SimdKernels, EmptySpansAreNoOps) {
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    EXPECT_EQ(ksum_sq(std::span<const double>()), 0.0);
    EXPECT_EQ(ksum_sq(std::span<const cdouble>()), 0.0);
    EXPECT_EQ(kdot(std::span<const double>(), std::span<const double>()), 0.0);
    kmag(std::span<const cdouble>(), std::span<double>());
    kcabs(std::span<const cdouble>(), std::span<double>());
    knorm(std::span<const cdouble>(), std::span<double>());
    kscale(std::span<double>(), 2.0);
    kgoertzel(std::span<const double>(), std::span<const double>(),
              std::span<double>(), std::span<double>());
  }
}

TEST_F(SimdKernels, LinkSimulatorFrameOutputBitIdenticalAcrossTargets) {
  // The acceptance gate: the full integrated frame (downlink decode + uplink
  // detection + localization) must be bit-identical on every dispatch target.
  struct FrameResult {
    bool locked, crc_ok, found;
    std::size_t dl_errors, ul_errors;
    double range_m, snr_db, mod_power, signature_score;
  };
  std::vector<FrameResult> results;
  const auto targets = available_targets();
  for (SimdTarget t : targets) {
    ASSERT_TRUE(set_target(t));
    core::SystemConfig cfg;
    cfg.tag_range_m = 2.5;
    cfg.seed = 7;
    cfg.dsp_threads = 1;
    core::LinkSimulator sim(cfg);
    sim.calibrate_tag();
    Rng rng(3);
    const auto payload = rng.bits(64);
    const phy::Bits ul = {1, 0, 1, 1, 0, 1};
    const auto r = sim.run_integrated(payload, ul);
    results.push_back({r.downlink.locked, r.downlink.crc_ok,
                       r.uplink.detection.found, r.downlink.bit_errors,
                       r.uplink.bit_errors, r.uplink.detection.range_m,
                       r.uplink.detection.snr_db, r.uplink.detection.mod_power,
                       r.uplink.detection.signature_score});
  }
  ASSERT_FALSE(results.empty());
  for (std::size_t i = 1; i < results.size(); ++i) {
    SCOPED_TRACE(std::string(target_name(targets[i])) + " vs " +
                 target_name(targets[0]));
    EXPECT_EQ(results[i].locked, results[0].locked);
    EXPECT_EQ(results[i].crc_ok, results[0].crc_ok);
    EXPECT_EQ(results[i].found, results[0].found);
    EXPECT_EQ(results[i].dl_errors, results[0].dl_errors);
    EXPECT_EQ(results[i].ul_errors, results[0].ul_errors);
    EXPECT_TRUE(bits_eq(results[i].range_m, results[0].range_m));
    EXPECT_TRUE(bits_eq(results[i].snr_db, results[0].snr_db));
    EXPECT_TRUE(bits_eq(results[i].mod_power, results[0].mod_power));
    EXPECT_TRUE(bits_eq(results[i].signature_score, results[0].signature_score));
  }
}

TEST_F(SimdKernels, TagScoreBankMatchesPerRowScalarReference) {
  // Entry-major bank: element [k·n + j] is entry k of row j. The reference
  // is the one-row two-accumulator loop the kernel doc promises bit-identity
  // with (k ascending, unfused in the double tier). Row counts straddle the
  // SSE2 (2) and AVX2 (4) lane widths; bank includes padding entries
  // (idx = 0, w = g = 0) like detect_many emits for short harmonic combs.
  const std::size_t n_spec = 96;
  const auto spec = [&] {
    RVec s(n_spec);
    for (std::size_t i = 0; i < n_spec; ++i) s[i] = std::abs(det(i + 5000)) + 1e-12;
    return s;
  }();
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{3}, std::size_t{4}, std::size_t{5},
                          std::size_t{7}, std::size_t{8}, std::size_t{9},
                          std::size_t{33}}) {
      SCOPED_TRACE("rows=" + std::to_string(n));
      const std::size_t entries = 7;
      std::vector<std::uint32_t> idx(entries * n, 0);
      RVec w(entries * n, 0.0), g(entries * n, 0.0);
      for (std::size_t j = 0; j < n; ++j) {
        // Row j uses 3 + j % 5 live entries; the rest stay as padding.
        const std::size_t live = 3 + j % 5;
        for (std::size_t k = 0; k < live; ++k) {
          const std::size_t e = k * n + j;
          idx[e] = static_cast<std::uint32_t>((11 * j + 17 * k + 1) % n_spec);
          w[e] = 1.0 / static_cast<double>(2 * k + 1);
          g[e] = 1.0;
        }
      }
      RVec on(n, -1.0), son(n, -1.0);
      ktagscore(spec, idx, w, g, n, on, son);
      RVec ref_on(n), ref_son(n);
      for (std::size_t j = 0; j < n; ++j) {
        double a = 0.0, b = 0.0;
        for (std::size_t k = 0; k < entries; ++k) {
          const std::size_t e = k * n + j;
          const double xv = spec[idx[e]];
          a = a + w[e] * xv;
          b = b + g[e] * xv;
        }
        ref_on[j] = a;
        ref_son[j] = b;
      }
      EXPECT_TRUE(bits_eq(on, ref_on));
      EXPECT_TRUE(bits_eq(son, ref_son));
    }
  }
}

TEST_F(SimdKernels, TagScoreBankFloatTierWithinToleranceOfFloatScalar) {
  // The float32_fast tier may fuse (real FMA), so SIMD targets are gated by
  // tolerance against the float scalar backend, not bitwise.
  const std::size_t n_spec = 96, n = 13, entries = 5;
  std::vector<float> spec(n_spec);
  for (std::size_t i = 0; i < n_spec; ++i)
    spec[i] = static_cast<float>(std::abs(det(i + 7000))) + 1e-9f;
  std::vector<std::uint32_t> idx(entries * n, 0);
  std::vector<float> w(entries * n, 0.0f), g(entries * n, 0.0f);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t k = 0; k < 1 + j % entries; ++k) {
      const std::size_t e = k * n + j;
      idx[e] = static_cast<std::uint32_t>((7 * j + 13 * k + 3) % n_spec);
      w[e] = 1.0f / static_cast<float>(2 * k + 1);
      g[e] = 1.0f;
    }
  ASSERT_TRUE(set_target(SimdTarget::kScalar));
  std::vector<float> on_ref(n), son_ref(n);
  ktagscore(std::span<const float>(spec), idx, w, g, n,
            std::span<float>(on_ref), std::span<float>(son_ref));
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    std::vector<float> on(n, -1.0f), son(n, -1.0f);
    ktagscore(std::span<const float>(spec), idx, w, g, n,
              std::span<float>(on), std::span<float>(son));
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(on[j], on_ref[j], 1e-5f * std::max(1.0f, std::abs(on_ref[j])));
      EXPECT_NEAR(son[j], son_ref[j],
                  1e-5f * std::max(1.0f, std::abs(son_ref[j])));
    }
  }
}

namespace {

/// A slow-time frame for the strip tests: 37 range bins (not a multiple of
/// any strip width used below), the first three closer than kMinRange so the
/// scored bins are not the whole grid.
constexpr double kMinRange = 0.15;

radar::AlignedProfiles strip_frame(std::size_t n_chirps) {
  radar::AlignedProfiles p;
  const std::size_t n_bins = 37;
  p.rows.resize(n_chirps);
  for (std::size_t m = 0; m < n_chirps; ++m)
    p.rows[m] = det_complex(n_bins, 300 + m);
  p.range_grid.resize(n_bins);
  for (std::size_t b = 0; b < n_bins; ++b)
    p.range_grid[b] = 0.06 * static_cast<double>(b);
  p.chirp_period_s = 120e-6;
  return p;
}

std::vector<std::uint32_t> scored_bins(const radar::AlignedProfiles& p) {
  std::vector<std::uint32_t> bins;
  for (std::size_t b = 0; b < p.n_bins(); ++b)
    if (!(p.range_grid[b] < kMinRange))
      bins.push_back(static_cast<std::uint32_t>(b));
  return bins;
}

/// The one-bin slow-time chain: |·| column, mean removal, Hann,
/// rfft_padded_into, knorm.
RVec per_bin_power(const radar::AlignedProfiles& p, std::size_t bin,
                   std::size_t first, std::size_t count, std::size_t n_fft) {
  RVec col(count);
  double mean = 0.0;
  for (std::size_t m = 0; m < count; ++m) {
    col[m] = std::abs(p.rows[first + m][bin]);
    mean += col[m];
  }
  mean /= static_cast<double>(count);
  const auto w = cached_window(WindowType::kHann, count);
  for (std::size_t m = 0; m < count; ++m) col[m] = (col[m] - mean) * (*w)[m];
  CVec spec;
  rfft_padded_into(col, n_fft, spec);
  RVec power(spec.size());
  knorm(spec, power);
  return power;
}

/// The same chain for a strip of bins, bin-interleaved, through
/// rfft_padded_strip and the split knorm. Returns power[k·lanes + j].
RVec strip_power_of(const radar::AlignedProfiles& p,
                    std::span<const std::uint32_t> bins, std::size_t first,
                    std::size_t count, const RfftPlanHandle<double>& plan) {
  const std::size_t lanes = bins.size();
  RVec x(count * lanes);
  RVec mean(lanes, 0.0);
  for (std::size_t m = 0; m < count; ++m)
    for (std::size_t j = 0; j < lanes; ++j) {
      x[m * lanes + j] = std::abs(p.rows[first + m][bins[j]]);
      mean[j] += x[m * lanes + j];
    }
  for (double& v : mean) v /= static_cast<double>(count);
  const auto w = cached_window(WindowType::kHann, count);
  for (std::size_t m = 0; m < count; ++m)
    for (std::size_t j = 0; j < lanes; ++j)
      x[m * lanes + j] = (x[m * lanes + j] - mean[j]) * (*w)[m];
  const std::size_t n_spec = (plan.n / 2 + 1) * lanes;
  RVec re(n_spec), im(n_spec), power(n_spec);
  rfft_padded_strip(x, lanes, plan, re, im);
  knorm(re, im, power);
  return power;
}

}  // namespace

TEST_F(SimdKernels, SlowTimeStripMatchesPerBinRfftBitForBit) {
  // The lane-batched slow-time chain must give every bin the bits of the
  // one-bin chain, on every target: window lengths 8/16/32/48 (48 pads to
  // 64), pad factors 1 and 4, strip widths whose last strip is partial
  // (34 scored bins) and that leave lanes past the last SIMD block, over a
  // windowed chirp range and with the near bins skipped.
  const std::size_t first = 3;
  const auto frame = strip_frame(first + 48);
  const auto bins = scored_bins(frame);
  ASSERT_EQ(bins.size(), 34u);
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t count : {8u, 16u, 32u, 48u}) {
      for (std::size_t pad : {1u, 4u}) {
        const std::size_t n_fft = next_power_of_two(count) * pad;
        const auto plan = rfft_plan(n_fft);
        for (std::size_t width : {1u, 5u, 7u, 16u}) {
          SCOPED_TRACE("count=" + std::to_string(count) +
                       " pad=" + std::to_string(pad) +
                       " lanes=" + std::to_string(width));
          for (std::size_t lo = 0; lo < bins.size(); lo += width) {
            const std::span<const std::uint32_t> strip(
                bins.data() + lo, std::min(width, bins.size() - lo));
            const RVec power = strip_power_of(frame, strip, first, count, plan);
            const std::size_t lanes = strip.size();
            for (std::size_t j = 0; j < lanes; ++j) {
              const RVec want =
                  per_bin_power(frame, strip[j], first, count, n_fft);
              RVec got(want.size());
              for (std::size_t k = 0; k < got.size(); ++k)
                got[k] = power[k * lanes + j];
              ASSERT_TRUE(bits_eq(got, want)) << "bin " << strip[j];
            }
          }
        }
        // The detector's own path (a one-bin strip with its corner turn).
        radar::TagDetectorConfig cfg;
        cfg.slow_time_pad_factor = pad;
        const radar::TagDetector detector(cfg);
        for (std::uint32_t b : bins)
          ASSERT_TRUE(bits_eq(detector.slow_time_spectrum(frame, b, first, count),
                              per_bin_power(frame, b, first, count, n_fft)))
              << "bin " << b;
      }
    }
  }
}

TEST_F(SimdKernels, SlowTimeStripFloatTierWithinToleranceOfPerBin) {
  // float32_fast: the strip transform against the float one-bin transform
  // (rfft_padded_into_f32), within a tolerance relative to the spectrum's
  // peak; targets may fuse differently, so no bitwise claim.
  for (SimdTarget t : available_targets()) {
    ASSERT_TRUE(set_target(t));
    SCOPED_TRACE(target_name(t));
    for (std::size_t count : {8u, 16u, 32u, 48u}) {
      for (std::size_t pad : {1u, 4u}) {
        const std::size_t n_fft = next_power_of_two(count) * pad;
        const auto plan = rfft_plan_f32(n_fft);
        const std::size_t lanes = 13;
        std::vector<float> x(count * lanes);
        for (std::size_t i = 0; i < x.size(); ++i)
          x[i] = static_cast<float>(det(i + 9000));
        const std::size_t n_spec = (n_fft / 2 + 1) * lanes;
        std::vector<float> re(n_spec), im(n_spec);
        rfft_padded_strip(std::span<const float>(x), lanes, plan,
                          std::span<float>(re), std::span<float>(im));
        for (std::size_t j = 0; j < lanes; ++j) {
          std::vector<float> col(count);
          for (std::size_t m = 0; m < count; ++m) col[m] = x[m * lanes + j];
          CVecF want;
          rfft_padded_into_f32(col, n_fft, want);
          float scale = 1e-6f;
          for (const auto& v : want) scale = std::max(scale, std::abs(v));
          for (std::size_t k = 0; k < want.size(); ++k) {
            EXPECT_NEAR(re[k * lanes + j], want[k].real(), 1e-5f * scale);
            EXPECT_NEAR(im[k * lanes + j], want[k].imag(), 1e-5f * scale);
          }
        }
      }
    }
  }
}

}  // namespace bis::dsp::kernels

/// SIMD kernel-layer harness: measures every dsp::kernels entry point on the
/// scalar reference vs the best available dispatch target, verifies bitwise
/// parity per row (the layer's contract — see dsp/kernels/kernels.hpp), and
/// writes BENCH_simd.json. Sizes include odd lengths so the tail path is
/// timed and parity-checked, not just the full-block path.
///
/// Exits nonzero on any parity failure so CI asserts the bit-identity
/// contract without depending on flaky timing thresholds. Speedups are
/// reported as-measured; rows carry the active target name so numbers from
/// an SSE2-only host are not mistaken for AVX2 numbers.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/random.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/types.hpp"

namespace {

using namespace bis;
using namespace bis::dsp::kernels;
using Clock = std::chrono::steady_clock;

volatile double g_sink = 0.0;

/// Minimum-of-repeats per-call time: the min over several timed chunks is
/// the standard microbenchmark estimator — preemption and frequency dips on
/// a busy host only ever inflate a chunk, so the minimum is the closest
/// observable to the true cost (means would fold scheduler noise into the
/// speedup ratios).
template <typename Fn>
double time_ns(Fn&& fn, int iters) {
  fn();  // warmup
  constexpr int kRepeats = 5;
  const int chunk = iters / kRepeats + 1;
  double best = 1e300;
  for (int r = 0; r < kRepeats; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < chunk; ++i) fn();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - t0).count() * 1e9 / chunk);
  }
  return best;
}

dsp::RVec random_real(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  dsp::RVec x(n);
  for (auto& v : x) v = rng.gaussian();
  return x;
}

dsp::CVec random_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  dsp::CVec x(n);
  for (auto& v : x) v = dsp::cdouble(rng.gaussian(), rng.gaussian());
  return x;
}

bool bits_equal(std::span<const double> a, std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool bits_equal(std::span<const dsp::cdouble> a, std::span<const dsp::cdouble> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(dsp::cdouble)) == 0);
}

struct Row {
  std::string kernel;
  std::size_t n = 0;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
  double speedup = 0.0;
  bool parity = false;
  bool has_fallback = false;  ///< Row printed with the scalar-reroute flag.
  bool fallback = false;      ///< kgoertzel_prefers_scalar at this shape.
};

/// Measure one kernel at one size: run() must write its full output into
/// caller-provided buffers; check() compares the scalar-target output with
/// the best-target output bitwise.
template <typename Run, typename Check>
Row measure(const char* name, std::size_t n, int iters, SimdTarget best,
            Run&& run, Check&& check) {
  Row row;
  row.kernel = name;
  row.n = n;
  set_target(SimdTarget::kScalar);
  run(/*slot=*/0);
  row.scalar_ns = time_ns([&] { run(0); }, iters);
  set_target(best);
  run(/*slot=*/1);
  row.simd_ns = time_ns([&] { run(1); }, iters);
  // Re-run both once more back-to-back so parity compares freshly-written
  // buffers (the timed loops above already overwrote both slots anyway).
  set_target(SimdTarget::kScalar);
  run(0);
  set_target(best);
  run(1);
  row.parity = check();
  row.speedup = row.scalar_ns / row.simd_ns;
  return row;
}

std::vector<Row> run_all(SimdTarget best) {
  std::vector<Row> rows;
  // 1024/4096 exercise the full-block path; 1023 lands a 3-element tail on
  // every kernel. Iteration counts keep each row around a few milliseconds.
  const struct { std::size_t n; int iters; } sizes[] = {
      {1023, 20000}, {1024, 20000}, {4096, 5000}};

  for (const auto& s : sizes) {
    const std::size_t n = s.n;
    const int iters = s.iters;
    const auto xc = random_complex(n, 11);
    const auto yc = random_complex(n, 12);
    const auto xr = random_real(n, 13);
    const auto w = random_real(n, 14);

    dsp::RVec r_out[2] = {dsp::RVec(n), dsp::RVec(n)};
    dsp::CVec c_out[2] = {dsp::CVec(n), dsp::CVec(n)};

    rows.push_back(measure(
        "kmag", n, iters, best,
        [&](int slot) { kmag(xc, r_out[slot]); g_sink = r_out[slot][0]; },
        [&] { return bits_equal(r_out[0], r_out[1]); }));
    // kcabs against the loop it replaces: the scalar slot is a per-element
    // std::abs (libm hypot), the SIMD slot kcabs on the best target, and
    // parity is kcabs reproducing std::abs's bits (cross-target parity where
    // the libm is not glibc >= 2.35, see kCabsMatchesStdAbs).
    rows.push_back(measure(
        "cabs", n, iters, best,
        [&](int slot) {
          if (slot == 0 && kCabsMatchesStdAbs)
            for (std::size_t i = 0; i < n; ++i) r_out[0][i] = std::abs(xc[i]);
          else
            kcabs(xc, r_out[slot]);
          g_sink = r_out[slot][0];
        },
        [&] { return bits_equal(r_out[0], r_out[1]); }));
    rows.push_back(measure(
        "knorm", n, iters, best,
        [&](int slot) { knorm(xc, r_out[slot]); g_sink = r_out[slot][0]; },
        [&] { return bits_equal(r_out[0], r_out[1]); }));
    rows.push_back(measure(
        "kmag_db", n, iters, best,
        [&](int slot) { kmag_db(xc, r_out[slot], -300.0); g_sink = r_out[slot][0]; },
        [&] { return bits_equal(r_out[0], r_out[1]); }));
    rows.push_back(measure(
        "kapply_window", n, iters, best,
        [&](int slot) { kapply_window(xr, w, r_out[slot]); g_sink = r_out[slot][0]; },
        [&] { return bits_equal(r_out[0], r_out[1]); }));
    rows.push_back(measure(
        "kapply_window_c", n, iters, best,
        [&](int slot) { kapply_window(xc, w, c_out[slot]); g_sink = c_out[slot][0].real(); },
        [&] { return bits_equal(c_out[0], c_out[1]); }));
    rows.push_back(measure(
        "kcmul", n, iters, best,
        [&](int slot) { kcmul(xc, yc, c_out[slot]); g_sink = c_out[slot][0].real(); },
        [&] { return bits_equal(c_out[0], c_out[1]); }));
    // In-place kernels: reset the buffer each call so the work (and values)
    // stay fixed; parity compares the one-application result.
    rows.push_back(measure(
        "kaxpy", n, iters, best,
        [&](int slot) {
          std::copy(w.begin(), w.end(), r_out[slot].begin());
          kaxpy(0.37, xr, r_out[slot]);
          g_sink = r_out[slot][0];
        },
        [&] { return bits_equal(r_out[0], r_out[1]); }));
    rows.push_back(measure(
        "kscale_add", n, iters, best,
        [&](int slot) {
          std::copy(w.begin(), w.end(), r_out[slot].begin());
          kscale_add(r_out[slot], 1.75, 0.37, xr);
          g_sink = r_out[slot][0];
        },
        [&] { return bits_equal(r_out[0], r_out[1]); }));

    double red[2] = {0.0, 0.0};
    rows.push_back(measure(
        "ksum_sq", n, iters, best,
        [&](int slot) { red[slot] = ksum_sq(std::span<const double>(xr)); g_sink = red[slot]; },
        [&] { return std::memcmp(&red[0], &red[1], sizeof(double)) == 0; }));
    rows.push_back(measure(
        "kdot", n, iters, best,
        [&](int slot) { red[slot] = kdot(xr, w); g_sink = red[slot]; },
        [&] { return std::memcmp(&red[0], &red[1], sizeof(double)) == 0; }));
  }

  // Goertzel: tag-decoder-shaped (38-frequency bank over a 46-sample chirp
  // window) and a wider case with an odd bank size (non-multiple-of-4 tail).
  const struct { std::size_t nfreq, nsamp; int iters; } gshapes[] = {
      {38, 46, 50000}, {37, 512, 5000}};
  for (const auto& g : gshapes) {
    const auto x = random_real(g.nsamp, 21);
    dsp::RVec coeffs(g.nfreq);
    for (std::size_t j = 0; j < g.nfreq; ++j)
      coeffs[j] = 2.0 * std::cos(0.05 + 0.07 * static_cast<double>(j));
    dsp::RVec s1[2] = {dsp::RVec(g.nfreq), dsp::RVec(g.nfreq)};
    dsp::RVec s2[2] = {dsp::RVec(g.nfreq), dsp::RVec(g.nfreq)};
    rows.push_back(measure(
        "kgoertzel", g.nfreq * g.nsamp, g.iters, best,
        [&](int slot) {
          std::fill(s1[slot].begin(), s1[slot].end(), 0.0);
          std::fill(s2[slot].begin(), s2[slot].end(), 0.0);
          kgoertzel(x, coeffs, s1[slot], s2[slot]);
          g_sink = s1[slot][0];
        },
        [&] { return bits_equal(s1[0], s1[1]) && bits_equal(s2[0], s2[1]); }));
    // Record whether the dispatcher reroutes this shape to scalar (the
    // large-n fallback, keyed on samples-per-frequency): the 18944-element
    // row must show fallback=true and a speedup back near 1.0x instead of
    // the 0.93x regression the lane-blocked form measured there.
    rows.back().has_fallback = true;
    rows.back().fallback = kgoertzel_prefers_scalar(g.nsamp);
  }

  // Slow-time strip kernels at the detector's shapes: a 128-point padded
  // slow-time rfft (64-point complex strip) over a full 16-bin strip, and a
  // 32-point one over a 13-bin tail strip (lanes past the last SIMD block).
  // Each row's n is points × lanes.
  const struct { std::size_t n_fft, lanes; int iters; } strips[] = {
      {128, 16, 20000}, {64, 13, 20000}};
  for (const auto& st : strips) {
    const auto plan = dsp::rfft_plan(st.n_fft);
    const std::size_t h = st.n_fft / 2, L = st.lanes;
    const auto zr0 = random_real(h * L, 31);
    const auto zi0 = random_real(h * L, 32);
    dsp::RVec zr[2] = {dsp::RVec(h * L), dsp::RVec(h * L)};
    dsp::RVec zi[2] = {dsp::RVec(h * L), dsp::RVec(h * L)};
    rows.push_back(measure(
        "kfft_strip", h * L, st.iters, best,
        [&](int slot) {
          std::copy(zr0.begin(), zr0.end(), zr[slot].begin());
          std::copy(zi0.begin(), zi0.end(), zi[slot].begin());
          kfft_strip(plan.half, L, zr[slot], zi[slot]);
          g_sink = zr[slot][0];
        },
        [&] {
          return bits_equal(zr[0], zr[1]) && bits_equal(zi[0], zi[1]);
        }));
    dsp::RVec xr[2] = {dsp::RVec((h + 1) * L), dsp::RVec((h + 1) * L)};
    dsp::RVec xi[2] = {dsp::RVec((h + 1) * L), dsp::RVec((h + 1) * L)};
    rows.push_back(measure(
        "krfft_untangle_strip", (h + 1) * L, st.iters, best,
        [&](int slot) {
          krfft_untangle_strip(plan.tw_re, plan.tw_im, L, zr0, zi0, xr[slot],
                               xi[slot]);
          g_sink = xr[slot][0];
        },
        [&] {
          return bits_equal(xr[0], xr[1]) && bits_equal(xi[0], xi[1]);
        }));
    dsp::RVec pw[2] = {dsp::RVec(h * L), dsp::RVec(h * L)};
    rows.push_back(measure(
        "knorm_split", h * L, st.iters, best,
        [&](int slot) {
          knorm(zr0, zi0, pw[slot]);
          g_sink = pw[slot][0];
        },
        [&] { return bits_equal(pw[0], pw[1]); }));
  }
  return rows;
}

// ---------------------------------------------------------------------------
// float32_fast tier rows: double vs float32 at the same dispatch target.
// These rows are tolerance-gated ("ok"), never bit-compared — the tier's
// contract (FMA + 8 lanes) gives up bit identity on purpose.

struct TierRow {
  std::string kernel;
  std::size_t n = 0;
  double double_ns = 0.0;
  double f32_ns = 0.0;
  double speedup = 0.0;
  double max_rel_err = 0.0;
  bool ok = false;
};

dsp::FVec to_f32(std::span<const double> x) {
  dsp::FVec out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = static_cast<float>(x[i]);
  return out;
}

dsp::CVecF to_f32(std::span<const dsp::cdouble> x) {
  dsp::CVecF out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = dsp::cfloat(static_cast<float>(x[i].real()),
                         static_cast<float>(x[i].imag()));
  return out;
}

/// Max |f32 − double| over the outputs, relative to the double output's
/// largest magnitude (element-wise relative error is meaningless near the
/// zero crossings of signed outputs).
double rel_err(std::span<const double> d, std::span<const float> f) {
  double scale = 1e-30, err = 0.0;
  for (const double v : d) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < d.size(); ++i)
    err = std::max(err, std::abs(static_cast<double>(f[i]) - d[i]));
  return err / scale;
}

double rel_err(std::span<const dsp::cdouble> d, std::span<const dsp::cfloat> f) {
  double scale = 1e-30, err = 0.0;
  for (const auto& v : d) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < d.size(); ++i)
    err = std::max(err, std::abs(dsp::cdouble(f[i].real(), f[i].imag()) - d[i]));
  return err / scale;
}

template <typename RunD, typename RunF, typename Err>
TierRow measure_tier(const char* name, std::size_t n, int iters, RunD&& run_d,
                     RunF&& run_f, Err&& err, double tol) {
  TierRow row;
  row.kernel = name;
  row.n = n;
  row.double_ns = time_ns([&] { run_d(); }, iters);
  row.f32_ns = time_ns([&] { run_f(); }, iters);
  run_d();
  run_f();
  row.max_rel_err = err();
  row.ok = row.max_rel_err <= tol;
  row.speedup = row.double_ns / row.f32_ns;
  return row;
}

std::vector<TierRow> run_tiers(SimdTarget best) {
  set_target(best);  // both tiers measured at the same dispatch target
  std::vector<TierRow> rows;
  const struct { std::size_t n; int iters; } sizes[] = {{1024, 20000},
                                                        {4096, 5000}};
  for (const auto& s : sizes) {
    const std::size_t n = s.n;
    const int iters = s.iters;
    const auto xc = random_complex(n, 11);
    const auto yc = random_complex(n, 12);
    const auto xr = random_real(n, 13);
    const auto w = random_real(n, 14);
    const auto xcf = to_f32(std::span<const dsp::cdouble>(xc));
    const auto ycf = to_f32(std::span<const dsp::cdouble>(yc));
    const auto xrf = to_f32(std::span<const double>(xr));
    const auto wf = to_f32(std::span<const double>(w));

    dsp::RVec rd(n);
    dsp::FVec rf(n);
    dsp::CVec cd(n);
    dsp::CVecF cf(n);

    rows.push_back(measure_tier(
        "kmag", n, iters,
        [&] { kmag(xc, rd); g_sink = rd[0]; },
        [&] { kmag(xcf, rf); g_sink = rf[0]; },
        [&] { return rel_err(rd, rf); }, 1e-4));
    rows.push_back(measure_tier(
        "knorm", n, iters,
        [&] { knorm(xc, rd); g_sink = rd[0]; },
        [&] { knorm(xcf, rf); g_sink = rf[0]; },
        [&] { return rel_err(rd, rf); }, 1e-4));
    // mag_db: the float tier uses a polynomial log10; gate on absolute dB
    // error (expressed via the relative helper over a ~±300 dB range).
    rows.push_back(measure_tier(
        "kmag_db", n, iters,
        [&] { kmag_db(xc, rd, -300.0); g_sink = rd[0]; },
        [&] { kmag_db(xcf, rf, -300.0f); g_sink = rf[0]; },
        [&] {
          double err = 0.0;
          for (std::size_t i = 0; i < n; ++i)
            err = std::max(err, std::abs(static_cast<double>(rf[i]) - rd[i]));
          return err;  // absolute dB
        },
        2e-3));
    rows.push_back(measure_tier(
        "kapply_window", n, iters,
        [&] { kapply_window(xr, w, rd); g_sink = rd[0]; },
        [&] { kapply_window(xrf, wf, rf); g_sink = rf[0]; },
        [&] { return rel_err(rd, rf); }, 1e-4));
    rows.push_back(measure_tier(
        "kapply_window_c", n, iters,
        [&] { kapply_window(xc, w, cd); g_sink = cd[0].real(); },
        [&] { kapply_window(xcf, wf, cf); g_sink = cf[0].real(); },
        [&] { return rel_err(cd, cf); }, 1e-4));
    rows.push_back(measure_tier(
        "kcmul", n, iters,
        [&] { kcmul(xc, yc, cd); g_sink = cd[0].real(); },
        [&] { kcmul(xcf, ycf, cf); g_sink = cf[0].real(); },
        [&] { return rel_err(cd, cf); }, 1e-4));
    rows.push_back(measure_tier(
        "kaxpy", n, iters,
        [&] {
          std::copy(w.begin(), w.end(), rd.begin());
          kaxpy(0.37, xr, rd);
          g_sink = rd[0];
        },
        [&] {
          std::copy(wf.begin(), wf.end(), rf.begin());
          kaxpy(0.37f, xrf, rf);
          g_sink = rf[0];
        },
        [&] { return rel_err(rd, rf); }, 1e-4));
    rows.push_back(measure_tier(
        "kscale_add", n, iters,
        [&] {
          std::copy(w.begin(), w.end(), rd.begin());
          kscale_add(rd, 1.75, 0.37, xr);
          g_sink = rd[0];
        },
        [&] {
          std::copy(wf.begin(), wf.end(), rf.begin());
          kscale_add(rf, 1.75f, 0.37f, xrf);
          g_sink = rf[0];
        },
        [&] { return rel_err(rd, rf); }, 1e-4));

    double sum_d = 0.0;
    float sum_f = 0.0f;
    rows.push_back(measure_tier(
        "ksum_sq", n, iters,
        [&] { sum_d = ksum_sq(std::span<const double>(xr)); g_sink = sum_d; },
        [&] { sum_f = ksum_sq(std::span<const float>(xrf)); g_sink = sum_f; },
        [&] { return std::abs(static_cast<double>(sum_f) - sum_d) / sum_d; },
        1e-4));
    rows.push_back(measure_tier(
        "kdot", n, iters,
        [&] { sum_d = kdot(xr, w); g_sink = sum_d; },
        [&] { sum_f = kdot(xrf, wf); g_sink = sum_f; },
        [&] {
          return std::abs(static_cast<double>(sum_f) - sum_d) /
                 std::max(1.0, std::abs(sum_d));
        },
        1e-4));
  }

  // Goertzel at the tag-decoder shape (short windows stay on the SIMD path
  // in both tiers; the float recurrence accumulates rounding over n_samp
  // iterations, hence the looser gate).
  {
    const std::size_t nfreq = 38, nsamp = 46;
    const auto x = random_real(nsamp, 21);
    const auto xf = to_f32(std::span<const double>(x));
    dsp::RVec coeffs(nfreq), s1d(nfreq), s2d(nfreq);
    dsp::FVec coeffsf(nfreq), s1f(nfreq), s2f(nfreq);
    for (std::size_t j = 0; j < nfreq; ++j) {
      coeffs[j] = 2.0 * std::cos(0.05 + 0.07 * static_cast<double>(j));
      coeffsf[j] = static_cast<float>(coeffs[j]);
    }
    rows.push_back(measure_tier(
        "kgoertzel", nfreq * nsamp, 50000,
        [&] {
          std::fill(s1d.begin(), s1d.end(), 0.0);
          std::fill(s2d.begin(), s2d.end(), 0.0);
          kgoertzel(x, coeffs, s1d, s2d);
          g_sink = s1d[0];
        },
        [&] {
          std::fill(s1f.begin(), s1f.end(), 0.0f);
          std::fill(s2f.begin(), s2f.end(), 0.0f);
          kgoertzel(xf, coeffsf, s1f, s2f);
          g_sink = s1f[0];
        },
        [&] { return std::max(rel_err(s1d, s1f), rel_err(s2d, s2f)); }, 1e-3));
  }

  // Slow-time strip FFT at the detector's full-strip shape.
  {
    const std::size_t n_fft = 128, h = n_fft / 2, L = 16;
    const auto plan = dsp::rfft_plan(n_fft);
    const auto plan_f = dsp::rfft_plan_f32(n_fft);
    const auto zr0 = random_real(h * L, 31);
    const auto zi0 = random_real(h * L, 32);
    const auto zr0f = to_f32(std::span<const double>(zr0));
    const auto zi0f = to_f32(std::span<const double>(zi0));
    dsp::RVec zr(h * L), zi(h * L);
    dsp::FVec zrf(h * L), zif(h * L);
    rows.push_back(measure_tier(
        "kfft_strip", h * L, 20000,
        [&] {
          std::copy(zr0.begin(), zr0.end(), zr.begin());
          std::copy(zi0.begin(), zi0.end(), zi.begin());
          kfft_strip(plan.half, L, zr, zi);
          g_sink = zr[0];
        },
        [&] {
          std::copy(zr0f.begin(), zr0f.end(), zrf.begin());
          std::copy(zi0f.begin(), zi0f.end(), zif.begin());
          kfft_strip(plan_f.half, L, zrf, zif);
          g_sink = zrf[0];
        },
        [&] { return std::max(rel_err(zr, zrf), rel_err(zi, zif)); }, 1e-5));
  }
  return rows;
}

bool write_bench_json(const std::string& path) {
  const SimdTarget best = active_target();
  std::printf("--- SIMD kernel harness (writing %s) ---\n", path.c_str());
  std::printf("dispatch target: %s (scalar baseline compiled with vectorization off)\n",
              target_name(best));
  if (best == SimdTarget::kScalar)
    std::fprintf(stderr,
                 "note: no SIMD backend available; all rows compare scalar "
                 "against itself\n");

  const auto rows = run_all(best);
  set_target(best);

  bool all_parity = true;
  for (const auto& r : rows) {
    all_parity = all_parity && r.parity;
    std::printf("%-16s n=%-6zu scalar %9.1f ns  %s %9.1f ns  speedup %5.2fx  parity %s%s\n",
                r.kernel.c_str(), r.n, r.scalar_ns, target_name(best), r.simd_ns,
                r.speedup, r.parity ? "ok" : "FAIL",
                r.has_fallback ? (r.fallback ? "  [scalar fallback]" : "  [simd]") : "");
  }

  std::printf("--- float32_fast tier (vs double, both at %s) ---\n",
              target_name(best));
  const auto tiers = run_tiers(best);
  bool all_tier_ok = true;
  double log_sum = 0.0;
  for (const auto& t : tiers) {
    all_tier_ok = all_tier_ok && t.ok;
    log_sum += std::log(t.speedup);
    std::printf("%-16s n=%-6zu double %9.1f ns  f32 %9.1f ns  speedup %5.2fx  max_err %.2e  %s\n",
                t.kernel.c_str(), t.n, t.double_ns, t.f32_ns, t.speedup,
                t.max_rel_err, t.ok ? "ok" : "FAIL");
  }
  const double tier_geomean =
      tiers.empty() ? 1.0 : std::exp(log_sum / static_cast<double>(tiers.size()));
  std::printf("float32_fast geomean speedup: %.2fx over %zu rows\n", tier_geomean,
              tiers.size());

  std::ofstream out(path);
  out << "{\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency() << ",\n";
  out << "  \"host\": " << bench::host_fingerprint_json() << ",\n";
  out << "  \"target\": \"" << target_name(best) << "\",\n";
  out << "  \"targets_available\": [";
  bool first = true;
  for (SimdTarget t : {SimdTarget::kScalar, SimdTarget::kSse2, SimdTarget::kAvx2}) {
    if (!target_available(t)) continue;
    out << (first ? "" : ", ") << "\"" << target_name(t) << "\"";
    first = false;
  }
  out << "],\n";
  out << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << "    {\"kernel\": \"" << rows[i].kernel << "\", \"n\": " << rows[i].n
        << ", \"scalar_ns\": " << rows[i].scalar_ns
        << ", \"simd_ns\": " << rows[i].simd_ns
        << ", \"speedup\": " << rows[i].speedup;
    if (rows[i].has_fallback)
      out << ", \"fallback\": " << (rows[i].fallback ? "true" : "false");
    out << ", \"parity\": " << (rows[i].parity ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"tiers\": [\n";
  for (std::size_t i = 0; i < tiers.size(); ++i) {
    out << "    {\"kernel\": \"" << tiers[i].kernel << "\", \"n\": " << tiers[i].n
        << ", \"tier\": \"float32_fast\""
        << ", \"double_ns\": " << tiers[i].double_ns
        << ", \"f32_ns\": " << tiers[i].f32_ns
        << ", \"speedup\": " << tiers[i].speedup
        << ", \"max_rel_err\": " << tiers[i].max_rel_err
        << ", \"ok\": " << (tiers[i].ok ? "true" : "false") << "}"
        << (i + 1 < tiers.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"tier_geomean_speedup\": " << tier_geomean << "\n";
  out << "}\n";
  return all_parity && all_tier_ok;
}

}  // namespace

int main() {
  const bool ok = write_bench_json("BENCH_simd.json");
  if (!ok) std::fprintf(stderr, "PARITY FAILURE: see harness output above\n");
  return ok ? 0 : 1;
}

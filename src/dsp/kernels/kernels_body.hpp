#pragma once

/// @file kernels_body.hpp
/// Generic kernel bodies, templated on a per-target `Ops` policy that models
/// one lane block of `Ops::Real` elements. The double tier uses 4-lane
/// blocks (AVX2: one 256-bit register, SSE2: two 128-bit registers, scalar:
/// four doubles); the float32_fast tier uses 8-lane blocks (AVX2: one
/// 256-bit float register, SSE2: two 128-bit registers, scalar: eight
/// floats). Writing each kernel once over this abstraction is what makes
/// the double tier's bit-identity contract hold by construction: every
/// element goes through the same IEEE operations in the same order on every
/// target, and the sub-block tails below are the same scalar code in every
/// backend (all double-tier TUs compile with -ffp-contract=off, so the
/// compiler cannot fuse a·b+c differently per TU). The float32 tier reuses
/// the same bodies but is explicitly non-normative: its AVX2 backend maps
/// `fmadd` to a real fused multiply-add and vectorizes the dB log, so it is
/// validated by tolerance, not parity.
///
/// Required Ops interface (V is the block type, L = Ops::kLanes):
///   Real                                  element type (double or float)
///   kLanes                                lanes per block (4 or 8)
///   V    load(const Real* p)              unaligned load of L elements
///   void store(Real* p, V)                unaligned store of L elements
///   V    bcast(Real v)
///   V    add/sub/mul(V, V), vsqrt(V)
///   V    fmadd(V a, V b, V c)             a·b + c. Double backends MUST
///                                         implement this as add(mul(a, b), c)
///                                         (no fusion); float32 AVX2 fuses.
///   Real reduce(V)                        (l0+l1) + (l2+l3) for 4 lanes;
///                                         ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))
///                                         for 8 lanes
///   V    gather(const Real* base, const uint32_t* idx)
///                                         [base[idx[0]], …, base[idx[L−1]]].
///                                         Loads the same IEEE values on
///                                         every target (a hardware gather
///                                         and L scalar loads are
///                                         value-identical), so bit-identity
///                                         is unaffected.
///   V    load_norm(const Cplx* p)         [re·re + im·im] for L complex,
///                                         in element order
///   void cmul_block(const Cplx* a, const Cplx* b, Cplx* out)
///                                         (ar·br − ai·bi, ar·bi + ai·br) ×L
///   void cwin_block(const Cplx* x, const Real* w, Cplx* out)
///                                         (re·w, im·w) ×L
///   kVecMagDb                             true when the backend supplies a
///                                         vectorized dB conversion:
///   V    db_from_norm(V n, V floor)       max(10·log10(n), floor) per lane
///                                         (float32 backends only)
///
/// Double backends also supply, for cabs:
///   void load_split(const Cplx* p, V& re, V& im)
///                                         deinterleave L complex, element
///                                         order
///   V    vabs(V), vdiv(V, V), vmin(V, V), vmax(V, V)
///                                         min/max only ever see non-NaN
///                                         lanes where their result is used
///   M                                     lane mask type
///   M    le(V a, V b), lt(V a, V b)       a ≤ b, a < b (false on NaN)
///   M    mand(M, M)
///   V    select(M m, V a, V b)            m ? a : b per lane
///   unsigned bits(M)                      lane j's flag at bit j

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <span>
#include <type_traits>

#include "dsp/kernels/kernel_table.hpp"

namespace bis::dsp::kernels::body {

template <typename Ops>
using RealOf = typename Ops::Real;
template <typename Ops>
using CplxOf = std::complex<typename Ops::Real>;

/// 10/ln(10): kmag_db hoists the dB scale and uses one natural log per
/// element instead of 10·log10(x) (same function count, but libm's log is
/// the cheaper entry point and the constant fold is explicit).
inline constexpr double kTenOverLn10 = 4.342944819032518;

template <typename Ops>
void mag(std::span<const CplxOf<Ops>> x, std::span<RealOf<Ops>> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(out.data() + i, Ops::vsqrt(Ops::load_norm(x.data() + i)));
  for (std::size_t i = nL; i < n; ++i) {
    const RealOf<Ops> re = x[i].real(), im = x[i].imag();
    out[i] = std::sqrt(re * re + im * im);
  }
}

/// glibc's __hypot range limits (sysdeps/ieee754/dbl-64/e_hypot.c, ≥ 2.35):
/// inside them, and with ay > ax·2^-54, it returns its unscaled kernel.
inline constexpr double kHypotLarge = 0x1p+511;
inline constexpr double kHypotTiny = 0x1p-511;
inline constexpr double kHypotEps = 0x1p-54;

/// std::abs(x[i]) lane for lane: glibc's non-FMA hypot kernel (Borges,
/// "An Improved Algorithm for hypot(a,b)", 2019) is sqrt, mul, add, sub,
/// div and one compare, so it runs on a lane block with both of its
/// correction branches computed and the h ≤ 2·ay compare selecting one.
/// Lanes glibc routes elsewhere (ax > 2^511, ay < 2^-511 — zeros included —
/// ay ≤ ax·2^-54, ±inf, NaN) and the sub-block tail call std::abs itself.
template <typename Ops>
void cabs(std::span<const cdouble> x, std::span<double> out) {
  using V = typename Ops::V;
  constexpr unsigned kAll = (1u << Ops::kLanes) - 1;
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const V large = Ops::bcast(kHypotLarge), tiny = Ops::bcast(kHypotTiny);
  const V eps = Ops::bcast(kHypotEps);
  const V two = Ops::bcast(2.0), four = Ops::bcast(4.0);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    V re, im;
    Ops::load_split(x.data() + i, re, im);
    re = Ops::vabs(re);
    im = Ops::vabs(im);
    const V ax = Ops::vmax(re, im), ay = Ops::vmin(re, im);
    // |re|, |im| ≤ 2^511 is false for NaN and ±inf as well.
    const auto in_range = Ops::mand(Ops::le(re, large), Ops::le(im, large));
    const auto ay_ok =
        Ops::mand(Ops::le(tiny, ay), Ops::lt(Ops::mul(ax, eps), ay));
    const unsigned fast = Ops::bits(Ops::mand(in_range, ay_ok));
    const V h = Ops::vsqrt(Ops::add(Ops::mul(ax, ax), Ops::mul(ay, ay)));
    const V ay2 = Ops::mul(two, ay);
    // h ≤ 2·ay: δ = h − ay, t1 = ax·(2δ − ax), t2 = (δ − 2(ax − ay))·δ.
    const V dn = Ops::sub(h, ay);
    const V t1n = Ops::mul(ax, Ops::sub(Ops::mul(two, dn), ax));
    const V t2n =
        Ops::mul(Ops::sub(dn, Ops::mul(two, Ops::sub(ax, ay))), dn);
    // Otherwise: δ = h − ax, t1 = 2δ·(ax − 2ay), t2 = (4δ − ay)·ay + δ·δ.
    const V df = Ops::sub(h, ax);
    const V t1f = Ops::mul(Ops::mul(two, df), Ops::sub(ax, ay2));
    const V t2f = Ops::add(Ops::mul(Ops::sub(Ops::mul(four, df), ay), ay),
                           Ops::mul(df, df));
    const auto near = Ops::le(h, ay2);
    const V t =
        Ops::add(Ops::select(near, t1n, t1f), Ops::select(near, t2n, t2f));
    Ops::store(out.data() + i, Ops::sub(h, Ops::vdiv(t, Ops::mul(two, h))));
    if (fast != kAll)
      for (std::size_t j = 0; j < Ops::kLanes; ++j)
        if (!(fast >> j & 1u)) out[i + j] = std::abs(x[i + j]);
  }
  for (std::size_t i = nL; i < n; ++i) out[i] = std::abs(x[i]);
}

template <typename Ops>
void norm(std::span<const CplxOf<Ops>> x, std::span<RealOf<Ops>> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(out.data() + i, Ops::load_norm(x.data() + i));
  for (std::size_t i = nL; i < n; ++i) {
    const RealOf<Ops> re = x[i].real(), im = x[i].imag();
    out[i] = re * re + im * im;
  }
}

template <typename Ops>
void mag_db(std::span<const CplxOf<Ops>> x, std::span<RealOf<Ops>> out,
            RealOf<Ops> floor_db) {
  using Real = RealOf<Ops>;
  // Vectorized |x|² first. The log pass depends on the tier: the double
  // backends share one scalar loop (libm log has no vector counterpart
  // here, and identical scalar code on every target keeps the output
  // bit-identical by construction); the float32 backends convert in-register
  // with a log2-based approximation (db_from_norm), leaving only the
  // sub-block tail on the scalar path.
  norm<Ops>(x, out);
  const std::size_t n = out.size();
  const Real scale = Real(kTenOverLn10);
  std::size_t tail_start = 0;
  if constexpr (Ops::kVecMagDb) {
    const std::size_t nL = n - n % Ops::kLanes;
    const auto vfloor = Ops::bcast(floor_db);
    for (std::size_t i = 0; i < nL; i += Ops::kLanes)
      Ops::store(out.data() + i,
                 Ops::db_from_norm(Ops::load(out.data() + i), vfloor));
    tail_start = nL;
  }
  for (std::size_t i = tail_start; i < n; ++i)
    out[i] = out[i] > Real(0) ? std::max(scale * std::log(out[i]), floor_db)
                              : floor_db;
}

template <typename Ops>
void apply_window_r(std::span<const RealOf<Ops>> x,
                    std::span<const RealOf<Ops>> w, std::span<RealOf<Ops>> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(out.data() + i,
               Ops::mul(Ops::load(x.data() + i), Ops::load(w.data() + i)));
  for (std::size_t i = nL; i < n; ++i) out[i] = x[i] * w[i];
}

template <typename Ops>
void apply_window_c(std::span<const CplxOf<Ops>> x,
                    std::span<const RealOf<Ops>> w, std::span<CplxOf<Ops>> out) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::cwin_block(x.data() + i, w.data() + i, out.data() + i);
  for (std::size_t i = nL; i < n; ++i)
    out[i] = CplxOf<Ops>(x[i].real() * w[i], x[i].imag() * w[i]);
}

template <typename Ops>
void cmul(std::span<const CplxOf<Ops>> a, std::span<const CplxOf<Ops>> b,
          std::span<CplxOf<Ops>> out) {
  using Real = RealOf<Ops>;
  const std::size_t n = a.size();
  const std::size_t nL = n - n % Ops::kLanes;
  // Two independent blocks per iteration: complex multiply is bound by the
  // shuffle port, so overlapping two dependence-free block computations lets
  // the multiplies of one block hide under the shuffles of the other. The
  // per-element operations are untouched, so bit-identity is unaffected.
  const std::size_t n2L = nL - nL % (2 * Ops::kLanes);
  for (std::size_t i = 0; i < n2L; i += 2 * Ops::kLanes) {
    Ops::cmul_block(a.data() + i, b.data() + i, out.data() + i);
    Ops::cmul_block(a.data() + i + Ops::kLanes, b.data() + i + Ops::kLanes,
                    out.data() + i + Ops::kLanes);
  }
  for (std::size_t i = n2L; i < nL; i += Ops::kLanes)
    Ops::cmul_block(a.data() + i, b.data() + i, out.data() + i);
  for (std::size_t i = nL; i < n; ++i) {
    const Real ar = a[i].real(), ai = a[i].imag();
    const Real br = b[i].real(), bi = b[i].imag();
    out[i] = CplxOf<Ops>(ar * br - ai * bi, ar * bi + ai * br);
  }
}

template <typename Ops>
void axpy(RealOf<Ops> a, std::span<const RealOf<Ops>> x,
          std::span<RealOf<Ops>> y) {
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto va = Ops::bcast(a);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(y.data() + i,
               Ops::fmadd(va, Ops::load(x.data() + i), Ops::load(y.data() + i)));
  for (std::size_t i = nL; i < n; ++i) y[i] = y[i] + a * x[i];
}

template <typename Ops>
void scale_add(std::span<RealOf<Ops>> y, RealOf<Ops> scale, RealOf<Ops> a,
               std::span<const RealOf<Ops>> x) {
  const std::size_t n = y.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto vs = Ops::bcast(scale);
  const auto va = Ops::bcast(a);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(y.data() + i,
               Ops::mul(vs, Ops::fmadd(va, Ops::load(x.data() + i),
                                       Ops::load(y.data() + i))));
  for (std::size_t i = nL; i < n; ++i) y[i] = scale * (y[i] + a * x[i]);
}

template <typename Ops>
void scale_r(std::span<RealOf<Ops>> y, RealOf<Ops> s) {
  const std::size_t n = y.size();
  const std::size_t nL = n - n % Ops::kLanes;
  const auto vs = Ops::bcast(s);
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    Ops::store(y.data() + i, Ops::mul(Ops::load(y.data() + i), vs));
  for (std::size_t i = nL; i < n; ++i) y[i] = y[i] * s;
}

template <typename Ops>
RealOf<Ops> sum_sq(std::span<const RealOf<Ops>> x) {
  using Real = RealOf<Ops>;
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  auto acc = Ops::bcast(Real(0));
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    const auto v = Ops::load(x.data() + i);
    acc = Ops::fmadd(v, v, acc);
  }
  Real total = Ops::reduce(acc);
  for (std::size_t i = nL; i < n; ++i) total += x[i] * x[i];
  return total;
}

template <typename Ops>
RealOf<Ops> dot(std::span<const RealOf<Ops>> x, std::span<const RealOf<Ops>> y) {
  using Real = RealOf<Ops>;
  const std::size_t n = x.size();
  const std::size_t nL = n - n % Ops::kLanes;
  auto acc = Ops::bcast(Real(0));
  for (std::size_t i = 0; i < nL; i += Ops::kLanes)
    acc = Ops::fmadd(Ops::load(x.data() + i), Ops::load(y.data() + i), acc);
  Real total = Ops::reduce(acc);
  for (std::size_t i = nL; i < n; ++i) total += x[i] * y[i];
  return total;
}

template <typename Ops>
void goertzel(std::span<const RealOf<Ops>> x, std::span<const RealOf<Ops>> coeffs,
              std::span<RealOf<Ops>> s1, std::span<RealOf<Ops>> s2) {
  using Real = RealOf<Ops>;
  const std::size_t nf = coeffs.size();
  const std::size_t nfL = nf - nf % Ops::kLanes;
  // One frequency per lane: the recurrence is sequential in samples but
  // embarrassingly parallel across bins. Lanes never interact, so each
  // bin's state matches the one-frequency scalar recurrence bit-for-bit
  // (double tier; the float32 AVX2 backend fuses c·s1 + x instead).
  for (std::size_t f = 0; f < nfL; f += Ops::kLanes) {
    const auto c = Ops::load(coeffs.data() + f);
    auto vs1 = Ops::bcast(Real(0));
    auto vs2 = Ops::bcast(Real(0));
    for (const Real sample : x) {
      const auto s = Ops::sub(Ops::fmadd(c, vs1, Ops::bcast(sample)), vs2);
      vs2 = vs1;
      vs1 = s;
    }
    Ops::store(s1.data() + f, vs1);
    Ops::store(s2.data() + f, vs2);
  }
  for (std::size_t f = nfL; f < nf; ++f) {
    const Real c = coeffs[f];
    Real p1 = 0, p2 = 0;
    for (const Real sample : x) {
      const Real s = (sample + c * p1) - p2;
      p2 = p1;
      p1 = s;
    }
    s1[f] = p1;
    s2[f] = p2;
  }
}

template <typename Ops>
void tagscore(std::span<const RealOf<Ops>> x, std::span<const std::uint32_t> idx,
              std::span<const RealOf<Ops>> w, std::span<const RealOf<Ops>> g,
              std::size_t n, std::span<RealOf<Ops>> on, std::span<RealOf<Ops>> son) {
  using Real = RealOf<Ops>;
  // One signature row per lane (like goertzel's one frequency per lane):
  // the entry-major layout puts entry k of row j at [k·n + j], so a lane
  // block loads kLanes rows' k-th entries contiguously and gathers their
  // spectrum values. Each row's two accumulators advance sequentially over
  // its entries in increasing spectrum-index order — the same multiply/add
  // sequence as the scalar tail below (fmadd is unfused in the double tier),
  // so rows are bit-identical to the one-row scalar evaluation. Padding
  // entries (w = g = 0, idx = 0) contribute +0.0, which is exact on the
  // non-negative accumulators.
  const std::size_t entries = n == 0 ? 0 : idx.size() / n;
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t j = 0; j < nL; j += Ops::kLanes) {
    auto acc_on = Ops::bcast(Real(0));
    auto acc_son = Ops::bcast(Real(0));
    for (std::size_t k = 0; k < entries; ++k) {
      const std::size_t base = k * n + j;
      const auto xv = Ops::gather(x.data(), idx.data() + base);
      acc_on = Ops::fmadd(Ops::load(w.data() + base), xv, acc_on);
      acc_son = Ops::fmadd(Ops::load(g.data() + base), xv, acc_son);
    }
    Ops::store(on.data() + j, acc_on);
    Ops::store(son.data() + j, acc_son);
  }
  for (std::size_t j = nL; j < n; ++j) {
    Real a = Real(0), b = Real(0);
    for (std::size_t k = 0; k < entries; ++k) {
      const std::size_t e = k * n + j;
      const Real xv = x[idx[e]];
      a = a + w[e] * xv;
      b = b + g[e] * xv;
    }
    on[j] = a;
    son[j] = b;
  }
}

/// One radix-2 butterfly on a block of lanes, exactly fft_pow2_with_plan's
/// (v = b·w as (br·wr − bi·wi, br·wi + bi·wr); a' = a + v; b' = a − v).
template <typename Ops, typename V>
inline void butterfly(V& ar, V& ai, V& br, V& bi, V wr, V wi) {
  const V vr = Ops::sub(Ops::mul(br, wr), Ops::mul(bi, wi));
  const V vi = Ops::add(Ops::mul(br, wi), Ops::mul(bi, wr));
  br = Ops::sub(ar, vr);
  bi = Ops::sub(ai, vi);
  ar = Ops::add(ar, vr);
  ai = Ops::add(ai, vi);
}

/// The len == 2 butterfly: the reference twiddle is exactly (1, 0), so it
/// is a pure add/sub.
template <typename Ops, typename V>
inline void butterfly_unit(V& ar, V& ai, V& br, V& bi) {
  const V ur = ar, ui = ai;
  ar = Ops::add(ur, br);
  ai = Ops::add(ui, bi);
  br = Ops::sub(ur, br);
  bi = Ops::sub(ui, bi);
}

/// Scalar lane ops for the strip tails: the same operations one element at
/// a time, so tail lanes match block lanes bit for bit.
template <typename Real>
struct LaneOps {
  static Real add(Real a, Real b) { return a + b; }
  static Real sub(Real a, Real b) { return a - b; }
  static Real mul(Real a, Real b) { return a * b; }
};

template <typename Ops>
void fft_strip(const FftPlanView<RealOf<Ops>>& plan, std::size_t lanes,
               std::span<RealOf<Ops>> re_s, std::span<RealOf<Ops>> im_s) {
  using Real = RealOf<Ops>;
  using S = LaneOps<Real>;
  // One signal per lane: lanes never interact, and every element passes
  // through exactly fft_pow2_with_plan's butterflies, stage by stage, with
  // the same twiddles. Two consecutive stages run in one pass over each
  // 4-row butterfly group (stage len on rows (a, b) and (c, d), then stage
  // 2·len on (a, c) and (b, d)): the per-element operation sequence is the
  // sequential one, but the group stays in registers between the stages.
  const std::size_t n = plan.n;
  if (n <= 1) return;
  const std::size_t L = lanes;
  const std::size_t LB = L - L % Ops::kLanes;
  Real* const re = re_s.data();
  Real* const im = im_s.data();
  for (const auto& [a, b] : plan.swaps) {
    Real* ra = re + a * L;
    Real* rb = re + b * L;
    Real* ia = im + a * L;
    Real* ib = im + b * L;
    for (std::size_t j = 0; j < LB; j += Ops::kLanes) {
      const auto xr = Ops::load(ra + j), xi = Ops::load(ia + j);
      Ops::store(ra + j, Ops::load(rb + j));
      Ops::store(ia + j, Ops::load(ib + j));
      Ops::store(rb + j, xr);
      Ops::store(ib + j, xi);
    }
    for (std::size_t j = LB; j < L; ++j) {
      std::swap(ra[j], rb[j]);
      std::swap(ia[j], ib[j]);
    }
  }

  // Stage len's twiddles start at [len/2 − 2]. Stage 2 has no table (its
  // butterflies are butterfly_unit); a unit twiddle stands in for it so the
  // lookups below never index outside the plan.
  static constexpr Real kUnitRe[1] = {Real(1)};
  static constexpr Real kUnitIm[1] = {Real(0)};
  const auto stage_re = [&](std::size_t len) {
    return len == 2 ? kUnitRe : plan.tw_re.data() + (len / 2 - 2);
  };
  const auto stage_im = [&](std::size_t len) {
    return len == 2 ? kUnitIm : plan.tw_im.data() + (len / 2 - 2);
  };

  // Rows a, b, c, d = base + {0, half, len, len + half}, half = len / 2.
  // Stage len pairs (a, b) and (c, d) with twiddle k; stage 2·len pairs
  // (a, c) with its twiddle k and (b, d) with its twiddle k + half.
  const auto fused = [&](std::size_t len) {
    const std::size_t half = len / 2;
    const Real* t1r = stage_re(len);
    const Real* t1i = stage_im(len);
    const Real* t2r = stage_re(2 * len);
    const Real* t2i = stage_im(2 * len);
    for (std::size_t i = 0; i < n; i += 2 * len) {
      for (std::size_t k = 0; k < half; ++k) {
        const std::size_t ra = i + k, rb = ra + half, rc = ra + len,
                          rd = rc + half;
        Real* pr[4] = {re + ra * L, re + rb * L, re + rc * L, re + rd * L};
        Real* pi[4] = {im + ra * L, im + rb * L, im + rc * L, im + rd * L};
        const Real w1r = t1r[k], w1i = t1i[k];
        const Real w2r = t2r[k], w2i = t2i[k];
        const Real w3r = t2r[k + half], w3i = t2i[k + half];
        const auto v1r = Ops::bcast(w1r), v1i = Ops::bcast(w1i);
        const auto v2r = Ops::bcast(w2r), v2i = Ops::bcast(w2i);
        const auto v3r = Ops::bcast(w3r), v3i = Ops::bcast(w3i);
        for (std::size_t j = 0; j < LB; j += Ops::kLanes) {
          auto ar = Ops::load(pr[0] + j), ai = Ops::load(pi[0] + j);
          auto br = Ops::load(pr[1] + j), bi = Ops::load(pi[1] + j);
          auto cr = Ops::load(pr[2] + j), ci = Ops::load(pi[2] + j);
          auto dr = Ops::load(pr[3] + j), di = Ops::load(pi[3] + j);
          if (len == 2) {
            butterfly_unit<Ops>(ar, ai, br, bi);
            butterfly_unit<Ops>(cr, ci, dr, di);
          } else {
            butterfly<Ops>(ar, ai, br, bi, v1r, v1i);
            butterfly<Ops>(cr, ci, dr, di, v1r, v1i);
          }
          butterfly<Ops>(ar, ai, cr, ci, v2r, v2i);
          butterfly<Ops>(br, bi, dr, di, v3r, v3i);
          Ops::store(pr[0] + j, ar);
          Ops::store(pi[0] + j, ai);
          Ops::store(pr[1] + j, br);
          Ops::store(pi[1] + j, bi);
          Ops::store(pr[2] + j, cr);
          Ops::store(pi[2] + j, ci);
          Ops::store(pr[3] + j, dr);
          Ops::store(pi[3] + j, di);
        }
        for (std::size_t j = LB; j < L; ++j) {
          Real ar = pr[0][j], ai = pi[0][j], br = pr[1][j], bi = pi[1][j];
          Real cr = pr[2][j], ci = pi[2][j], dr = pr[3][j], di = pi[3][j];
          if (len == 2) {
            butterfly_unit<S>(ar, ai, br, bi);
            butterfly_unit<S>(cr, ci, dr, di);
          } else {
            butterfly<S>(ar, ai, br, bi, w1r, w1i);
            butterfly<S>(cr, ci, dr, di, w1r, w1i);
          }
          butterfly<S>(ar, ai, cr, ci, w2r, w2i);
          butterfly<S>(br, bi, dr, di, w3r, w3i);
          pr[0][j] = ar, pi[0][j] = ai, pr[1][j] = br, pi[1][j] = bi;
          pr[2][j] = cr, pi[2][j] = ci, pr[3][j] = dr, pi[3][j] = di;
        }
      }
    }
  };

  // A last unpaired stage (len == n, or n == 2) runs alone.
  const auto single = [&](std::size_t len) {
    const std::size_t half = len / 2;
    const Real* twr = stage_re(len);
    const Real* twi = stage_im(len);
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        Real* ar = re + (i + k) * L;
        Real* ai = im + (i + k) * L;
        Real* br = re + (i + k + half) * L;
        Real* bi = im + (i + k + half) * L;
        const Real wr = twr[k], wi = twi[k];
        const auto vwr = Ops::bcast(wr), vwi = Ops::bcast(wi);
        for (std::size_t j = 0; j < LB; j += Ops::kLanes) {
          auto xar = Ops::load(ar + j), xai = Ops::load(ai + j);
          auto xbr = Ops::load(br + j), xbi = Ops::load(bi + j);
          if (len == 2)
            butterfly_unit<Ops>(xar, xai, xbr, xbi);
          else
            butterfly<Ops>(xar, xai, xbr, xbi, vwr, vwi);
          Ops::store(ar + j, xar);
          Ops::store(ai + j, xai);
          Ops::store(br + j, xbr);
          Ops::store(bi + j, xbi);
        }
        for (std::size_t j = LB; j < L; ++j) {
          Real xar = ar[j], xai = ai[j], xbr = br[j], xbi = bi[j];
          if (len == 2)
            butterfly_unit<S>(xar, xai, xbr, xbi);
          else
            butterfly<S>(xar, xai, xbr, xbi, wr, wi);
          ar[j] = xar, ai[j] = xai, br[j] = xbr, bi[j] = xbi;
        }
      }
    }
  };

  std::size_t len = 2;
  for (; 2 * len <= n; len *= 4) fused(len);
  if (len <= n) single(len);
}

/// One rfft untangle step (rfft_into's loop body) on a block of lanes: from
/// a = Z[k] and z' = Z[h−k], X[k] = E + W^k·O with E = (a + conj z')/2 and
/// O = −j(a − conj z')/2. The reference forms a.imag + (conj z').imag and
/// a.imag − (conj z').imag; IEEE subtraction is addition of the negated
/// operand, so ai − zi' and ai + zi' are those values bit for bit.
template <typename Ops, typename V>
inline void untangle(V ar, V ai, V br, V bi, V wr, V wi, V half, V mhalf,
                     V& xr, V& xi) {
  const V er = Ops::mul(half, Ops::add(ar, br));
  const V ei = Ops::mul(half, Ops::sub(ai, bi));
  const V od = Ops::mul(half, Ops::add(ai, bi));
  const V oi = Ops::mul(mhalf, Ops::sub(ar, br));
  xr = Ops::sub(Ops::add(er, Ops::mul(wr, od)), Ops::mul(wi, oi));
  xi = Ops::add(Ops::add(ei, Ops::mul(wr, oi)), Ops::mul(wi, od));
}

template <typename Ops>
void rfft_untangle_strip(std::span<const RealOf<Ops>> tw_re,
                         std::span<const RealOf<Ops>> tw_im, std::size_t lanes,
                         std::span<const RealOf<Ops>> z_re,
                         std::span<const RealOf<Ops>> z_im,
                         std::span<RealOf<Ops>> x_re,
                         std::span<RealOf<Ops>> x_im) {
  using Real = RealOf<Ops>;
  using S = LaneOps<Real>;
  // rfft_into per lane. Bins 0 and h both come from Z[0] and are real.
  const std::size_t L = lanes;
  const std::size_t LB = L - L % Ops::kLanes;
  const std::size_t h = tw_re.size() - 1;
  const Real* zr = z_re.data();
  const Real* zi = z_im.data();
  Real* xr = x_re.data();
  Real* xi = x_im.data();
  const auto vzero = Ops::bcast(Real(0));
  for (std::size_t j = 0; j < LB; j += Ops::kLanes) {
    const auto r = Ops::load(zr + j), i = Ops::load(zi + j);
    Ops::store(xr + j, Ops::add(r, i));
    Ops::store(xi + j, vzero);
    Ops::store(xr + h * L + j, Ops::sub(r, i));
    Ops::store(xi + h * L + j, vzero);
  }
  for (std::size_t j = LB; j < L; ++j) {
    xr[j] = zr[j] + zi[j];
    xi[j] = Real(0);
    xr[h * L + j] = zr[j] - zi[j];
    xi[h * L + j] = Real(0);
  }
  const auto vhalf = Ops::bcast(Real(0.5));
  const auto vmhalf = Ops::bcast(Real(-0.5));
  for (std::size_t k = 1; k < h; ++k) {
    const Real wr = tw_re[k], wi = tw_im[k];
    const auto vwr = Ops::bcast(wr), vwi = Ops::bcast(wi);
    const Real* azr = zr + k * L;
    const Real* azi = zi + k * L;
    const Real* bzr = zr + (h - k) * L;
    const Real* bzi = zi + (h - k) * L;
    Real* oxr = xr + k * L;
    Real* oxi = xi + k * L;
    for (std::size_t j = 0; j < LB; j += Ops::kLanes) {
      auto vxr = vzero, vxi = vzero;
      untangle<Ops>(Ops::load(azr + j), Ops::load(azi + j), Ops::load(bzr + j),
                    Ops::load(bzi + j), vwr, vwi, vhalf, vmhalf, vxr, vxi);
      Ops::store(oxr + j, vxr);
      Ops::store(oxi + j, vxi);
    }
    for (std::size_t j = LB; j < L; ++j)
      untangle<S>(azr[j], azi[j], bzr[j], bzi[j], wr, wi, Real(0.5),
                  Real(-0.5), oxr[j], oxi[j]);
  }
}

template <typename Ops>
void norm_split(std::span<const RealOf<Ops>> re, std::span<const RealOf<Ops>> im,
                std::span<RealOf<Ops>> out) {
  const std::size_t n = re.size();
  const std::size_t nL = n - n % Ops::kLanes;
  for (std::size_t i = 0; i < nL; i += Ops::kLanes) {
    const auto r = Ops::load(re.data() + i), m = Ops::load(im.data() + i);
    Ops::store(out.data() + i, Ops::add(Ops::mul(r, r), Ops::mul(m, m)));
  }
  for (std::size_t i = nL; i < n; ++i) out[i] = re[i] * re[i] + im[i] * im[i];
}

/// Assemble the dispatch table for one backend.
template <typename Ops>
detail::KernelTableT<RealOf<Ops>> make_table() {
  detail::KernelTableT<RealOf<Ops>> t;
  t.mag = &mag<Ops>;
  if constexpr (std::is_same_v<RealOf<Ops>, double>) t.cabs = &cabs<Ops>;
  t.norm = &norm<Ops>;
  t.mag_db = &mag_db<Ops>;
  t.apply_window_r = &apply_window_r<Ops>;
  t.apply_window_c = &apply_window_c<Ops>;
  t.cmul = &cmul<Ops>;
  t.axpy = &axpy<Ops>;
  t.scale_add = &scale_add<Ops>;
  t.scale_r = &scale_r<Ops>;
  t.sum_sq = &sum_sq<Ops>;
  t.dot = &dot<Ops>;
  t.goertzel = &goertzel<Ops>;
  t.tagscore = &tagscore<Ops>;
  t.fft_strip = &fft_strip<Ops>;
  t.rfft_untangle_strip = &rfft_untangle_strip<Ops>;
  t.norm_split = &norm_split<Ops>;
  return t;
}

}  // namespace bis::dsp::kernels::body

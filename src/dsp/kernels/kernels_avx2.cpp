/// AVX2 kernel backend: the 4-lane block is one 256-bit register. Compiled
/// with -mavx2 (this TU only — the dispatcher guarantees it never runs on a
/// CPU without AVX2) and -ffp-contract=off: no FMA instructions are emitted,
/// because SSE2 has no fused multiply-add and the bit-identity contract
/// requires all targets to round identically. The AVX2 win comes from lane
/// width, not fusion.

#if (defined(__x86_64__) || defined(_M_X64)) && defined(__AVX2__)

#include <immintrin.h>

#include "dsp/kernels/kernels_body.hpp"

namespace bis::dsp::kernels {
namespace {

struct Avx2Ops {
  using Real = double;
  static constexpr std::size_t kLanes = 4;
  static constexpr bool kVecMagDb = false;

  using V = __m256d;

  static V load(const double* p) { return _mm256_loadu_pd(p); }
  static V gather(const double* base, const std::uint32_t* idx) {
    // Hardware gather: loads the same IEEE values as four scalar loads. The
    // masked form with an all-ones mask gathers every lane exactly like
    // _mm256_i32gather_pd, but names its pass-through source, which keeps
    // GCC 12 from warning that the unmasked form's is uninitialized.
    return _mm256_mask_i32gather_pd(
        _mm256_setzero_pd(), base,
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx)),
        _mm256_castsi256_pd(_mm256_set1_epi64x(-1)), 8);
  }
  static void store(double* p, V v) { _mm256_storeu_pd(p, v); }
  static V bcast(double x) { return _mm256_set1_pd(x); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  static V vsqrt(V a) { return _mm256_sqrt_pd(a); }
  static V vdiv(V a, V b) { return _mm256_div_pd(a, b); }
  static V vmin(V a, V b) { return _mm256_min_pd(a, b); }
  static V vmax(V a, V b) { return _mm256_max_pd(a, b); }
  static V vabs(V a) { return _mm256_andnot_pd(_mm256_set1_pd(-0.0), a); }

  using M = __m256d;
  static M le(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LE_OQ); }
  static M lt(V a, V b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static M mand(M a, M b) { return _mm256_and_pd(a, b); }
  static V select(M m, V a, V b) { return _mm256_blendv_pd(b, a, m); }
  static unsigned bits(M m) {
    return static_cast<unsigned>(_mm256_movemask_pd(m));
  }

  static void load_split(const cdouble* p, V& re, V& im) {
    const double* d = reinterpret_cast<const double*>(p);
    const __m256d a = _mm256_loadu_pd(d);      // re0 im0 re1 im1
    const __m256d b = _mm256_loadu_pd(d + 4);  // re2 im2 re3 im3
    // Lane-wise unpack gives order 0,2,1,3; permute back to element order.
    constexpr int kOrder = _MM_SHUFFLE(3, 1, 2, 0);
    re = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), kOrder);
    im = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), kOrder);
  }

  static double reduce(V a) {
    // (l0 + l1) + (l2 + l3) — the documented lane-blocked combine order.
    const __m128d lo = _mm256_castpd256_pd128(a);       // l0, l1
    const __m128d hi = _mm256_extractf128_pd(a, 1);     // l2, l3
    const __m128d s01 = _mm_add_sd(lo, _mm_unpackhi_pd(lo, lo));
    const __m128d s23 = _mm_add_sd(hi, _mm_unpackhi_pd(hi, hi));
    return _mm_cvtsd_f64(_mm_add_sd(s01, s23));
  }

  // Normative tier: unfused a·b + c. This TU compiles with -ffp-contract=off
  // and no -mfma, so _mm256_add_pd(_mm256_mul_pd(...)) cannot be contracted.
  static V fmadd(V a, V b, V c) { return add(mul(a, b), c); }

  static V load_norm(const cdouble* p) {
    const double* d = reinterpret_cast<const double*>(p);
    const __m256d a = _mm256_loadu_pd(d);      // re0 im0 re1 im1
    const __m256d b = _mm256_loadu_pd(d + 4);  // re2 im2 re3 im3
    const __m256d sa = _mm256_mul_pd(a, a);
    const __m256d sb = _mm256_mul_pd(b, b);
    // 128-bit-lane-wise unpack: re² lanes [0,2,1,3], im² lanes likewise;
    // re² + im² per element, then un-permute to element order.
    const __m256d re = _mm256_unpacklo_pd(sa, sb);  // n0 n2 n1 n3 (re parts)
    const __m256d im = _mm256_unpackhi_pd(sa, sb);
    const __m256d n = _mm256_add_pd(re, im);        // |x|² in order 0,2,1,3
    return _mm256_permute4x64_pd(n, _MM_SHUFFLE(3, 1, 2, 0));
  }

  /// Two complex products per register: a = [ar0,ai0,ar1,ai1].
  static __m256d cmul2(__m256d a, __m256d b) {
    const __m256d br = _mm256_movedup_pd(b);               // br0 br0 br1 br1
    const __m256d bi = _mm256_permute_pd(b, 0xF);          // bi0 bi0 bi1 bi1
    const __m256d a_swap = _mm256_permute_pd(a, 0x5);      // ai0 ar0 ai1 ar1
    const __m256d t1 = _mm256_mul_pd(a, br);               // ar·br, ai·br
    const __m256d t2 = _mm256_mul_pd(a_swap, bi);          // ai·bi, ar·bi
    // Even lanes subtract, odd lanes add — exactly the scalar reference's
    // (ar·br − ai·bi, ar·bi + ai·br) with ai·br + ar·bi commuted (exact).
    return _mm256_addsub_pd(t1, t2);
  }

  static void cmul_block(const cdouble* a, const cdouble* b, cdouble* out) {
    const double* da = reinterpret_cast<const double*>(a);
    const double* db = reinterpret_cast<const double*>(b);
    double* dout = reinterpret_cast<double*>(out);
    _mm256_storeu_pd(dout, cmul2(_mm256_loadu_pd(da), _mm256_loadu_pd(db)));
    _mm256_storeu_pd(dout + 4,
                     cmul2(_mm256_loadu_pd(da + 4), _mm256_loadu_pd(db + 4)));
  }

  static void cwin_block(const cdouble* x, const double* w, cdouble* out) {
    const double* dx = reinterpret_cast<const double*>(x);
    double* dout = reinterpret_cast<double*>(out);
    const __m128d w01 = _mm_loadu_pd(w);
    const __m128d w23 = _mm_loadu_pd(w + 2);
    // Duplicate each window sample across its complex pair: w0 w0 w1 w1.
    const __m256d d01 = _mm256_permute_pd(_mm256_set_m128d(w01, w01), 0xC);
    const __m256d d23 = _mm256_permute_pd(_mm256_set_m128d(w23, w23), 0xC);
    _mm256_storeu_pd(dout, _mm256_mul_pd(_mm256_loadu_pd(dx), d01));
    _mm256_storeu_pd(dout + 4, _mm256_mul_pd(_mm256_loadu_pd(dx + 4), d23));
  }
};

}  // namespace

namespace detail {

const KernelTable& avx2_table() {
  static const KernelTable table = body::make_table<Avx2Ops>();
  return table;
}

}  // namespace detail
}  // namespace bis::dsp::kernels

#endif  // x86-64 && __AVX2__

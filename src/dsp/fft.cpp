#include "dsp/fft.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "common/constants.hpp"

namespace bis::dsp {
namespace {

// ---------------------------------------------------------------------------
// Uncached reference path. The plan cache below must reproduce these results
// bit-for-bit: plan tables are generated with the identical twiddle
// recurrence and applied in the identical loop order.
// ---------------------------------------------------------------------------

/// In-place radix-2 Cooley–Tukey. x.size() must be a power of two.
void fft_radix2_inplace(CVec& x, bool inverse) {
  const std::size_t n = x.size();
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 1.0 : -1.0) * kTwoPi / static_cast<double>(len);
    const cdouble wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cdouble w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cdouble u = x[i + k];
        const cdouble v = x[i + k + len / 2] * w;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
}

/// Bluestein chirp factors c[k] = exp(sign · jπ k² / n). Uses k² mod 2n to
/// keep the argument small and the twiddles exact for large k.
CVec bluestein_chirp(std::size_t n, bool inverse) {
  const double sign = inverse ? 1.0 : -1.0;
  CVec chirp(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t k2 = (static_cast<std::uint64_t>(k) * k) % (2 * n);
    const double angle = sign * kPi * static_cast<double>(k2) / static_cast<double>(n);
    chirp[k] = cdouble(std::cos(angle), std::sin(angle));
  }
  return chirp;
}

/// Zero-padded Bluestein convolution kernel b (length m) for @p chirp.
CVec bluestein_kernel(std::span<const cdouble> chirp, std::size_t m) {
  const std::size_t n = chirp.size();
  CVec b(m, cdouble(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) {
    const cdouble c = std::conj(chirp[k]);
    b[k] = c;
    if (k != 0) b[m - k] = c;
  }
  return b;
}

/// Bluestein chirp-z transform for arbitrary n, expressed via power-of-two
/// convolution. Rebuilds everything per call (reference path).
CVec fft_bluestein_uncached(std::span<const cdouble> x, bool inverse) {
  const std::size_t n = x.size();
  const CVec chirp = bluestein_chirp(n, inverse);

  const std::size_t m = next_power_of_two(2 * n - 1);
  CVec a(m, cdouble(0.0, 0.0));
  for (std::size_t k = 0; k < n; ++k) a[k] = x[k] * chirp[k];
  CVec b = bluestein_kernel(chirp, m);

  fft_radix2_inplace(a, /*inverse=*/false);
  fft_radix2_inplace(b, /*inverse=*/false);
  for (std::size_t k = 0; k < m; ++k) a[k] *= b[k];
  fft_radix2_inplace(a, /*inverse=*/true);
  const double inv_m = 1.0 / static_cast<double>(m);

  CVec out(n);
  for (std::size_t k = 0; k < n; ++k) out[k] = a[k] * inv_m * chirp[k];
  return out;
}

CVec transform_uncached(std::span<const cdouble> x, bool inverse) {
  const std::size_t n = x.size();
  if (n == 0) return {};
  CVec out;
  if (is_power_of_two(n)) {
    out.assign(x.begin(), x.end());
    fft_radix2_inplace(out, inverse);
  } else {
    out = fft_bluestein_uncached(x, inverse);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : out) v *= inv_n;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Plan cache. Plans execute on split real/imag (SoA) arrays: the butterfly
// inner loops become clean, independent, vectorizable double loops instead of
// a serial complex twiddle recurrence. Every expression mirrors the complex
// arithmetic of the reference path term by term ((ac−bd, ad+bc) products,
// identical accumulation order), so the results are bit-identical — only the
// storage layout and the table reuse differ.
// ---------------------------------------------------------------------------

/// Everything size-dependent a transform of size n needs, computed once.
struct FftPlan {
  std::size_t n = 0;

  // Power-of-two path: bit-reversal swap pairs (i < j) in reference order and
  // the SoA twiddles of every stage len = 4, 8, …, n concatenated: stage
  // len's entries k ∈ [0, len/2) start at offset len/2 − 2 (n − 2 in all).
  // The len == 2 stage multiplies by exactly (1, 0) in the reference, so it
  // is executed multiplication-free and needs no table. Tables are built with
  // the same w *= wlen recurrence as the reference.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> swaps;
  RVec tw_re_fwd, tw_im_fwd;
  RVec tw_re_inv, tw_im_inv;

  // Bluestein path (n not a power of two): SoA chirp factors and the
  // pre-transformed convolution kernel B = FFT(b) for both directions, plus
  // the plan for the size-m power-of-two convolution transforms.
  std::size_t m = 0;
  RVec chirp_re_fwd, chirp_im_fwd, chirp_re_inv, chirp_im_inv;
  RVec kernel_re_fwd, kernel_im_fwd, kernel_re_inv, kernel_im_inv;
  std::shared_ptr<const FftPlan> conv_plan;
};

/// Apply a power-of-two plan in place on split re/im arrays.
void fft_pow2_with_plan(double* __restrict xr, double* __restrict xi,
                        const FftPlan& plan, bool inverse) {
  const std::size_t n = plan.n;
  if (n <= 1) return;
  for (const auto& [i, j] : plan.swaps) {
    std::swap(xr[i], xr[j]);
    std::swap(xi[i], xi[j]);
  }

  // Stage len == 2: reference twiddle is exactly (1, 0), so v == x and the
  // butterfly is a pure add/sub (bit-identical to multiplying by one).
  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const double ur = xr[i], ui = xi[i];
    const double vr = xr[i + 1], vi = xi[i + 1];
    xr[i] = ur + vr;
    xi[i] = ui + vi;
    xr[i + 1] = ur - vr;
    xi[i + 1] = ui - vi;
  }

  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const double* __restrict twr =
        (inverse ? plan.tw_re_inv : plan.tw_re_fwd).data() + (half - 2);
    const double* __restrict twi =
        (inverse ? plan.tw_im_inv : plan.tw_im_fwd).data() + (half - 2);
    for (std::size_t i = 0; i < n; i += len) {
      double* __restrict ar = xr + i;
      double* __restrict ai = xi + i;
      double* __restrict br = xr + i + half;
      double* __restrict bi = xi + i + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double vr = br[k] * twr[k] - bi[k] * twi[k];
        const double vi = br[k] * twi[k] + bi[k] * twr[k];
        const double ur = ar[k], ui = ai[k];
        ar[k] = ur + vr;
        ai[k] = ui + vi;
        br[k] = ur - vr;
        bi[k] = ui - vi;
      }
    }
  }
}

/// float32 mirror of a power-of-two plan (float32_fast tier): shares the
/// bit-reversal table of the equal-size double plan and carries the same
/// per-stage twiddles rounded once to float. Derived, never built from
/// scratch, so the float tables always correspond to the double plan they
/// were cast from.
struct FftPlanF32 {
  std::size_t n = 0;
  std::shared_ptr<const FftPlan> base;  // swaps + lifetime anchor
  FVec tw_re_fwd, tw_im_fwd;
  FVec tw_re_inv, tw_im_inv;
};

/// Apply a float32 power-of-two plan in place on split re/im arrays. Same
/// loop structure as fft_pow2_with_plan; this TU compiles with the default
/// flags, so the compiler may contract/vectorize — acceptable because the
/// float tier is tolerance-validated, not bit-compared.
void fft_pow2_with_plan_f32(float* __restrict xr, float* __restrict xi,
                            const FftPlanF32& plan, bool inverse) {
  const std::size_t n = plan.n;
  if (n <= 1) return;
  for (const auto& [i, j] : plan.base->swaps) {
    std::swap(xr[i], xr[j]);
    std::swap(xi[i], xi[j]);
  }

  for (std::size_t i = 0; i + 1 < n; i += 2) {
    const float ur = xr[i], ui = xi[i];
    const float vr = xr[i + 1], vi = xi[i + 1];
    xr[i] = ur + vr;
    xi[i] = ui + vi;
    xr[i + 1] = ur - vr;
    xi[i + 1] = ui - vi;
  }

  for (std::size_t len = 4; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const float* __restrict twr =
        (inverse ? plan.tw_re_inv : plan.tw_re_fwd).data() + (half - 2);
    const float* __restrict twi =
        (inverse ? plan.tw_im_inv : plan.tw_im_fwd).data() + (half - 2);
    for (std::size_t i = 0; i < n; i += len) {
      float* __restrict ar = xr + i;
      float* __restrict ai = xi + i;
      float* __restrict br = xr + i + half;
      float* __restrict bi = xi + i + half;
      for (std::size_t k = 0; k < half; ++k) {
        const float vr = br[k] * twr[k] - bi[k] * twi[k];
        const float vi = br[k] * twi[k] + bi[k] * twr[k];
        const float ur = ar[k], ui = ai[k];
        ar[k] = ur + vr;
        ai[k] = ui + vi;
        br[k] = ur - vr;
        bi[k] = ui - vi;
      }
    }
  }
}

std::shared_ptr<const FftPlan> make_pow2_plan(std::size_t n) {
  auto plan = std::make_shared<FftPlan>();
  plan->n = n;
  if (n <= 1) return plan;

  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j)
      plan->swaps.emplace_back(static_cast<std::uint32_t>(i),
                               static_cast<std::uint32_t>(j));
  }

  for (int dir = 0; dir < 2; ++dir) {
    const bool inverse = dir == 1;
    RVec& tw_re = inverse ? plan->tw_re_inv : plan->tw_re_fwd;
    RVec& tw_im = inverse ? plan->tw_im_inv : plan->tw_im_fwd;
    tw_re.reserve(n - 2);
    tw_im.reserve(n - 2);
    for (std::size_t len = 4; len <= n; len <<= 1) {
      const double angle =
          (inverse ? 1.0 : -1.0) * kTwoPi / static_cast<double>(len);
      const cdouble wlen(std::cos(angle), std::sin(angle));
      cdouble w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        tw_re.push_back(w.real());
        tw_im.push_back(w.imag());
        w *= wlen;
      }
    }
  }
  return plan;
}

/// Per-thread scratch for the split re/im working set, so repeated
/// transforms do no allocation beyond the output vector (the Bluestein path
/// used to allocate three size-m vectors per call).
struct FftScratch {
  RVec re, im;
  void ensure(std::size_t n) {
    if (re.size() < n) {
      re.resize(n);
      im.resize(n);
    }
  }
};

FftScratch& scratch() {
  thread_local FftScratch s;
  return s;
}

struct FftScratchF32 {
  FVec re, im;
  void ensure(std::size_t n) {
    if (re.size() < n) {
      re.resize(n);
      im.resize(n);
    }
  }
};

FftScratchF32& scratch_f32() {
  thread_local FftScratchF32 s;
  return s;
}

/// Untangle twiddles e^{-j2πk/n}, k ∈ [0, n/2], for the real-input (rfft)
/// split of an even-length transform; the inverse path conjugates them.
/// Anchors the n/2-point complex plan the split runs, so an RfftPlanHandle
/// keeps both alive with one reference.
struct RfftPlan {
  std::size_t n = 0;
  std::size_t h = 0;  // n/2
  RVec tw_re, tw_im;
  std::shared_ptr<const FftPlan> half;
};

/// float32 untangle twiddles, cast once from the double RfftPlan, plus the
/// float n/2-point plan.
struct RfftPlanF32 {
  std::size_t n = 0;
  std::size_t h = 0;
  FVec tw_re, tw_im;
  std::shared_ptr<const FftPlanF32> half;
};

class PlanCache {
 public:
  std::shared_ptr<const FftPlan> get(std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = plans_.find(n);
      if (it != plans_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto plan = build(n);
    std::lock_guard<std::mutex> lock(mu_);
    // A concurrent builder may have raced us; keep the first one inserted so
    // every caller shares one table set.
    return plans_.emplace(n, std::move(plan)).first->second;
  }

  /// Untangle plan for an even-length real-input transform. Shares the
  /// hit/miss counters with the complex plans: an rfft is one rplan lookup
  /// plus one half-size complex plan lookup.
  std::shared_ptr<const RfftPlan> get_rfft(std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = rplans_.find(n);
      if (it != rplans_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto plan = std::make_shared<RfftPlan>();
    plan->n = n;
    plan->h = n / 2;
    plan->half = get(plan->h);
    plan->tw_re.resize(plan->h + 1);
    plan->tw_im.resize(plan->h + 1);
    for (std::size_t k = 0; k <= plan->h; ++k) {
      const double angle = -kTwoPi * static_cast<double>(k) / static_cast<double>(n);
      plan->tw_re[k] = std::cos(angle);
      plan->tw_im[k] = std::sin(angle);
    }
    std::lock_guard<std::mutex> lock(mu_);
    return rplans_.emplace(n, std::move(plan)).first->second;
  }

  /// float32 plan for a power-of-two size (float32_fast tier). Derived from
  /// the double plan of the same size; shares the hit/miss counters.
  std::shared_ptr<const FftPlanF32> get_f32(std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = fplans_.find(n);
      if (it != fplans_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto base = get(n);  // builds / fetches the double plan
    auto plan = std::make_shared<FftPlanF32>();
    plan->n = n;
    plan->base = base;
    const auto cast_stages = [](const RVec& src, FVec& dst) {
      dst.resize(src.size());
      for (std::size_t k = 0; k < src.size(); ++k)
        dst[k] = static_cast<float>(src[k]);
    };
    cast_stages(base->tw_re_fwd, plan->tw_re_fwd);
    cast_stages(base->tw_im_fwd, plan->tw_im_fwd);
    cast_stages(base->tw_re_inv, plan->tw_re_inv);
    cast_stages(base->tw_im_inv, plan->tw_im_inv);
    std::lock_guard<std::mutex> lock(mu_);
    return fplans_.emplace(n, std::move(plan)).first->second;
  }

  std::shared_ptr<const RfftPlanF32> get_rfft_f32(std::size_t n) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = rfplans_.find(n);
      if (it != rfplans_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second;
      }
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    auto base = get_rfft(n);
    auto plan = std::make_shared<RfftPlanF32>();
    plan->n = base->n;
    plan->h = base->h;
    plan->half = get_f32(plan->h);
    plan->tw_re.resize(base->tw_re.size());
    plan->tw_im.resize(base->tw_im.size());
    for (std::size_t k = 0; k < base->tw_re.size(); ++k) {
      plan->tw_re[k] = static_cast<float>(base->tw_re[k]);
      plan->tw_im[k] = static_cast<float>(base->tw_im[k]);
    }
    std::lock_guard<std::mutex> lock(mu_);
    return rfplans_.emplace(n, std::move(plan)).first->second;
  }

  FftPlanCacheStats stats() {
    FftPlanCacheStats s;
    s.hits = hits_.load(std::memory_order_relaxed);
    s.misses = misses_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu_);
    s.plans = plans_.size() + rplans_.size() + fplans_.size() + rfplans_.size();
    return s;
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mu_);
    plans_.clear();
    rplans_.clear();
    fplans_.clear();
    rfplans_.clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<const FftPlan> build(std::size_t n) {
    if (is_power_of_two(n)) return make_pow2_plan(n);

    auto plan = std::make_shared<FftPlan>();
    plan->n = n;
    plan->m = next_power_of_two(2 * n - 1);
    plan->conv_plan = get(plan->m);  // recursion depth 1: m is a power of two

    const auto split = [](const CVec& v, RVec& re, RVec& im) {
      re.resize(v.size());
      im.resize(v.size());
      for (std::size_t k = 0; k < v.size(); ++k) {
        re[k] = v[k].real();
        im[k] = v[k].imag();
      }
    };
    for (int dir = 0; dir < 2; ++dir) {
      const bool inverse = dir == 1;
      const CVec chirp = bluestein_chirp(n, inverse);
      const CVec kernel = bluestein_kernel(chirp, plan->m);
      split(chirp, inverse ? plan->chirp_re_inv : plan->chirp_re_fwd,
            inverse ? plan->chirp_im_inv : plan->chirp_im_fwd);
      RVec& kre = inverse ? plan->kernel_re_inv : plan->kernel_re_fwd;
      RVec& kim = inverse ? plan->kernel_im_inv : plan->kernel_im_fwd;
      split(kernel, kre, kim);
      // Pre-transform B = FFT(b) once; per call this replaces a whole
      // size-m forward FFT with a pointwise multiply.
      fft_pow2_with_plan(kre.data(), kim.data(), *plan->conv_plan,
                         /*inverse=*/false);
    }
    return plan;
  }

  std::mutex mu_;
  std::unordered_map<std::size_t, std::shared_ptr<const FftPlan>> plans_;
  std::unordered_map<std::size_t, std::shared_ptr<const RfftPlan>> rplans_;
  std::unordered_map<std::size_t, std::shared_ptr<const FftPlanF32>> fplans_;
  std::unordered_map<std::size_t, std::shared_ptr<const RfftPlanF32>> rfplans_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

PlanCache& plan_cache() {
  static PlanCache cache;
  return cache;
}

void fft_bluestein_with_plan_into(std::span<const cdouble> x,
                                  const FftPlan& plan, bool inverse,
                                  CVec& out) {
  const std::size_t n = plan.n;
  const std::size_t m = plan.m;
  const RVec& cr = inverse ? plan.chirp_re_inv : plan.chirp_re_fwd;
  const RVec& ci = inverse ? plan.chirp_im_inv : plan.chirp_im_fwd;
  const RVec& kr = inverse ? plan.kernel_re_inv : plan.kernel_re_fwd;
  const RVec& ki = inverse ? plan.kernel_im_inv : plan.kernel_im_fwd;

  FftScratch& sc = scratch();
  sc.ensure(m);
  double* __restrict ar = sc.re.data();
  double* __restrict ai = sc.im.data();
  for (std::size_t k = 0; k < n; ++k) {  // a[k] = x[k] · chirp[k]
    const double xr = x[k].real(), xi = x[k].imag();
    ar[k] = xr * cr[k] - xi * ci[k];
    ai[k] = xr * ci[k] + xi * cr[k];
  }
  for (std::size_t k = n; k < m; ++k) ar[k] = ai[k] = 0.0;

  fft_pow2_with_plan(ar, ai, *plan.conv_plan, /*inverse=*/false);
  for (std::size_t k = 0; k < m; ++k) {  // a[k] *= B[k]
    const double re = ar[k] * kr[k] - ai[k] * ki[k];
    const double im = ar[k] * ki[k] + ai[k] * kr[k];
    ar[k] = re;
    ai[k] = im;
  }
  fft_pow2_with_plan(ar, ai, *plan.conv_plan, /*inverse=*/true);
  const double inv_m = 1.0 / static_cast<double>(m);

  out.resize(n);
  for (std::size_t k = 0; k < n; ++k) {  // out[k] = (a[k]·inv_m)·chirp[k]
    const double sr = ar[k] * inv_m, si = ai[k] * inv_m;
    out[k] = cdouble(sr * cr[k] - si * ci[k], sr * ci[k] + si * cr[k]);
  }
}

/// Core transform writing into a caller-owned output vector: allocation-free
/// once out has capacity n (and the per-thread scratch is warm).
void transform_into(std::span<const cdouble> x, bool inverse, CVec& out) {
  const std::size_t n = x.size();
  if (n == 0) {
    out.clear();
    return;
  }
  const auto plan = plan_cache().get(n);
  if (is_power_of_two(n)) {
    out.resize(n);
    FftScratch& sc = scratch();
    sc.ensure(n);
    double* __restrict xr = sc.re.data();
    double* __restrict xi = sc.im.data();
    for (std::size_t i = 0; i < n; ++i) {
      xr[i] = x[i].real();
      xi[i] = x[i].imag();
    }
    fft_pow2_with_plan(xr, xi, *plan, inverse);
    for (std::size_t i = 0; i < n; ++i) out[i] = cdouble(xr[i], xi[i]);
  } else {
    fft_bluestein_with_plan_into(x, *plan, inverse, out);
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : out) v *= inv_n;
  }
}

CVec transform(std::span<const cdouble> x, bool inverse) {
  CVec out;
  transform_into(x, inverse, out);
  return out;
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

CVec fft(std::span<const cdouble> x) { return transform(x, /*inverse=*/false); }

CVec ifft(std::span<const cdouble> x) { return transform(x, /*inverse=*/true); }

CVec fft_uncached(std::span<const cdouble> x) {
  return transform_uncached(x, /*inverse=*/false);
}

CVec ifft_uncached(std::span<const cdouble> x) {
  return transform_uncached(x, /*inverse=*/true);
}

FftPlanCacheStats fft_plan_cache_stats() { return plan_cache().stats(); }

void fft_plan_cache_clear() { plan_cache().clear(); }

CVec fft_real(std::span<const double> x) {
  CVec cx(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) cx[i] = cdouble(x[i], 0.0);
  return fft(cx);
}

void fft_padded_into(std::span<const cdouble> x, std::size_t n_fft, CVec& out) {
  BIS_CHECK(n_fft > 0);
  thread_local CVec cx;
  cx.assign(n_fft, cdouble(0.0, 0.0));
  const std::size_t n = std::min(x.size(), n_fft);
  for (std::size_t i = 0; i < n; ++i) cx[i] = x[i];
  transform_into(cx, /*inverse=*/false, out);
}

CVec fft_padded(std::span<const cdouble> x, std::size_t n_fft) {
  CVec out;
  fft_padded_into(x, n_fft, out);
  return out;
}

CVec fft_real_padded(std::span<const double> x, std::size_t n_fft) {
  BIS_CHECK(n_fft > 0);
  CVec cx(n_fft, cdouble(0.0, 0.0));
  const std::size_t n = std::min(x.size(), n_fft);
  for (std::size_t i = 0; i < n; ++i) cx[i] = cdouble(x[i], 0.0);
  return fft(cx);
}

// GCC's autovectorizer turns the interleaved complex untangle/re-tangle loops
// below into shuffle-heavy SSE2 code that measures ~6x SLOWER than scalar on
// the target hosts (verified with -fno-tree-vectorize on the bench harness).
// The loops are short (h+1 iterations) and latency-bound; keep them scalar.
#if defined(__GNUC__) && !defined(__clang__)
#define BIS_SCALAR_LOOP __attribute__((optimize("no-tree-vectorize")))
#else
#define BIS_SCALAR_LOOP
#endif

BIS_SCALAR_LOOP void rfft_into(std::span<const double> x, CVec& out) {
  const std::size_t n = x.size();
  if (n == 0) {
    out.clear();
    return;
  }
  if (n == 1) {
    out.assign(1, cdouble(x[0], 0.0));
    return;
  }
  if (n % 2 != 0) {
    // Odd length: no even/odd split — run the full complex transform and
    // keep the one-sided bins (numerically identical to fft_real).
    CVec full = fft_real(x);
    full.resize(n / 2 + 1);
    out = std::move(full);
    return;
  }
  const std::size_t h = n / 2;
  const auto plan = plan_cache().get_rfft(n);

  // Pack even samples into re, odd into im: one h-point complex FFT carries
  // both half-length real transforms.
  thread_local CVec packed;
  packed.resize(h);
  for (std::size_t k = 0; k < h; ++k)
    packed[k] = cdouble(x[2 * k], x[2 * k + 1]);
  thread_local CVec z;
  transform_into(packed, /*inverse=*/false, z);

  // Untangle: E[k] = (Z[k] + conj(Z[h−k]))/2, O[k] = −j(Z[k] − conj(Z[h−k]))/2,
  // X[k] = E[k] + e^{−j2πk/n}·O[k] for k ∈ [0, h] (Z indices mod h). Only
  // k = 0 and k = h wrap, and both collapse to Z[0] with W^0 = 1, W^h = −1:
  // X[0] = Re Z[0] + Im Z[0], X[h] = Re Z[0] − Im Z[0], both purely real.
  // Handling them outside the loop keeps the hot path free of index modulos.
  out.resize(h + 1);
  out[0] = cdouble(z[0].real() + z[0].imag(), 0.0);
  out[h] = cdouble(z[0].real() - z[0].imag(), 0.0);
  const double* __restrict twr = plan->tw_re.data();
  const double* __restrict twi = plan->tw_im.data();
  for (std::size_t k = 1; k < h; ++k) {
    const cdouble a = z[k];
    const cdouble b = std::conj(z[h - k]);
    const double er = 0.5 * (a.real() + b.real());
    const double ei = 0.5 * (a.imag() + b.imag());
    const double dr = a.real() - b.real();
    const double di = a.imag() - b.imag();
    const double od = 0.5 * di;    // O = (di/2, −dr/2)
    const double oi = -0.5 * dr;
    out[k] = cdouble(er + twr[k] * od - twi[k] * oi,
                     ei + twr[k] * oi + twi[k] * od);
  }
}

CVec rfft(std::span<const double> x) {
  CVec out;
  rfft_into(x, out);
  return out;
}

void rfft_padded_into(std::span<const double> x, std::size_t n_fft, CVec& out) {
  BIS_CHECK(n_fft > 0);
  if (x.size() == n_fft) {
    rfft_into(x, out);
    return;
  }
  thread_local RVec padded;
  padded.assign(n_fft, 0.0);
  const std::size_t n = std::min(x.size(), n_fft);
  for (std::size_t i = 0; i < n; ++i) padded[i] = x[i];
  rfft_into(padded, out);
}

CVec rfft_padded(std::span<const double> x, std::size_t n_fft) {
  CVec out;
  rfft_padded_into(x, n_fft, out);
  return out;
}

RfftPlanHandle<double> rfft_plan(std::size_t n) {
  BIS_CHECK(n >= 2 && is_power_of_two(n));
  const auto plan = plan_cache().get_rfft(n);
  const FftPlan& half = *plan->half;
  return {n,
          {half.n, half.swaps, half.tw_re_fwd, half.tw_im_fwd},
          plan->tw_re,
          plan->tw_im,
          plan};
}

RfftPlanHandle<float> rfft_plan_f32(std::size_t n) {
  BIS_CHECK(n >= 2 && is_power_of_two(n));
  const auto plan = plan_cache().get_rfft_f32(n);
  const FftPlanF32& half = *plan->half;
  return {n,
          {half.n, half.base->swaps, half.tw_re_fwd, half.tw_im_fwd},
          plan->tw_re,
          plan->tw_im,
          plan};
}

namespace {

/// Shared body of the two rfft_padded_strip tiers: pack even samples into
/// the real rows and odd samples into the imaginary rows of an n/2-point
/// complex strip (zero rows past the signal), transform, untangle — the
/// structure of rfft_into, lane-batched.
template <typename Real, typename Vec>
void rfft_strip_impl(std::span<const Real> x, std::size_t lanes,
                     const RfftPlanHandle<Real>& plan, std::span<Real> re,
                     std::span<Real> im, Vec& zr, Vec& zi) {
  BIS_CHECK(lanes > 0 && x.size() % lanes == 0);
  const std::size_t count = x.size() / lanes;
  const std::size_t h = plan.n / 2;
  BIS_CHECK(count <= plan.n);
  BIS_CHECK(re.size() == (h + 1) * lanes && im.size() == re.size());
  zr.resize(h * lanes);
  zi.resize(h * lanes);
  for (std::size_t k = 0; k < h; ++k) {
    Real* r = zr.data() + k * lanes;
    Real* i = zi.data() + k * lanes;
    if (2 * k < count)
      std::copy_n(x.data() + 2 * k * lanes, lanes, r);
    else
      std::fill_n(r, lanes, Real(0));
    if (2 * k + 1 < count)
      std::copy_n(x.data() + (2 * k + 1) * lanes, lanes, i);
    else
      std::fill_n(i, lanes, Real(0));
  }
  kernels::kfft_strip(plan.half, lanes, zr, zi);
  kernels::krfft_untangle_strip(plan.tw_re, plan.tw_im, lanes, zr, zi, re, im);
}

}  // namespace

void rfft_padded_strip(std::span<const double> x, std::size_t lanes,
                       const RfftPlanHandle<double>& plan,
                       std::span<double> re, std::span<double> im) {
  thread_local RVec zr, zi;
  rfft_strip_impl(x, lanes, plan, re, im, zr, zi);
}

void rfft_padded_strip(std::span<const float> x, std::size_t lanes,
                       const RfftPlanHandle<float>& plan, std::span<float> re,
                       std::span<float> im) {
  thread_local FVec zr, zi;
  rfft_strip_impl(x, lanes, plan, re, im, zr, zi);
}

// ---------------------------------------------------------------------------
// float32_fast tier (non-normative). Power-of-two sizes run entirely in
// float32 with plans derived from the double cache; anything else converts
// through the double path once each way.

void fft_padded_into_f32(std::span<const cfloat> x, std::size_t n_fft,
                         CVecF& out) {
  BIS_CHECK(n_fft > 0);
  const std::size_t n = std::min(x.size(), n_fft);
  if (!is_power_of_two(n_fft)) {
    thread_local CVec dx;
    thread_local CVec dout;
    dx.assign(n_fft, cdouble(0.0, 0.0));
    for (std::size_t i = 0; i < n; ++i)
      dx[i] = cdouble(x[i].real(), x[i].imag());
    transform_into(dx, /*inverse=*/false, dout);
    out.resize(n_fft);
    for (std::size_t i = 0; i < n_fft; ++i)
      out[i] = cfloat(static_cast<float>(dout[i].real()),
                      static_cast<float>(dout[i].imag()));
    return;
  }
  const auto plan = plan_cache().get_f32(n_fft);
  FftScratchF32& sc = scratch_f32();
  sc.ensure(n_fft);
  float* __restrict xr = sc.re.data();
  float* __restrict xi = sc.im.data();
  for (std::size_t i = 0; i < n; ++i) {
    xr[i] = x[i].real();
    xi[i] = x[i].imag();
  }
  for (std::size_t i = n; i < n_fft; ++i) xr[i] = xi[i] = 0.0f;
  fft_pow2_with_plan_f32(xr, xi, *plan, /*inverse=*/false);
  out.resize(n_fft);
  for (std::size_t i = 0; i < n_fft; ++i) out[i] = cfloat(xr[i], xi[i]);
}

void rfft_padded_into_f32(std::span<const float> x, std::size_t n_fft,
                          CVecF& out) {
  BIS_CHECK(n_fft > 0);
  const std::size_t n = std::min(x.size(), n_fft);
  if (n_fft == 1) {
    out.assign(1, cfloat(n > 0 ? x[0] : 0.0f, 0.0f));
    return;
  }
  if (!is_power_of_two(n_fft)) {
    thread_local RVec dx;
    thread_local CVec dout;
    dx.assign(n_fft, 0.0);
    for (std::size_t i = 0; i < n; ++i) dx[i] = static_cast<double>(x[i]);
    rfft_into(dx, dout);
    out.resize(dout.size());
    for (std::size_t i = 0; i < dout.size(); ++i)
      out[i] = cfloat(static_cast<float>(dout[i].real()),
                      static_cast<float>(dout[i].imag()));
    return;
  }
  const std::size_t h = n_fft / 2;
  const auto rplan = plan_cache().get_rfft_f32(n_fft);
  const auto plan = plan_cache().get_f32(h);

  // Pack even samples into re, odd into im (zero-padding past n), run the
  // half-size float complex transform, then untangle — same structure as the
  // double rfft_into.
  FftScratchF32& sc = scratch_f32();
  sc.ensure(h);
  float* __restrict zr = sc.re.data();
  float* __restrict zi = sc.im.data();
  for (std::size_t k = 0; k < h; ++k) {
    const std::size_t e = 2 * k, o = 2 * k + 1;
    zr[k] = e < n ? x[e] : 0.0f;
    zi[k] = o < n ? x[o] : 0.0f;
  }
  fft_pow2_with_plan_f32(zr, zi, *plan, /*inverse=*/false);

  out.resize(h + 1);
  out[0] = cfloat(zr[0] + zi[0], 0.0f);
  out[h] = cfloat(zr[0] - zi[0], 0.0f);
  const float* __restrict twr = rplan->tw_re.data();
  const float* __restrict twi = rplan->tw_im.data();
  for (std::size_t k = 1; k < h; ++k) {
    const float ar = zr[k], ai = zi[k];
    const float br = zr[h - k], bi = -zi[h - k];
    const float er = 0.5f * (ar + br);
    const float ei = 0.5f * (ai + bi);
    const float od = 0.5f * (ai - bi);   // O = (di/2, −dr/2)
    const float oi = -0.5f * (ar - br);
    out[k] = cfloat(er + twr[k] * od - twi[k] * oi,
                    ei + twr[k] * oi + twi[k] * od);
  }
}

BIS_SCALAR_LOOP RVec irfft(std::span<const cdouble> spectrum, std::size_t n) {
  BIS_CHECK(n > 0);
  BIS_CHECK(spectrum.size() == n / 2 + 1);
  if (n == 1) return {spectrum[0].real()};
  if (n % 2 != 0) {
    // Odd length: rebuild the conjugate-symmetric full spectrum and take the
    // real part of the complex inverse.
    CVec full(n);
    full[0] = spectrum[0];
    for (std::size_t k = 1; k <= n / 2; ++k) {
      full[k] = spectrum[k];
      full[n - k] = std::conj(spectrum[k]);
    }
    const CVec z = ifft(full);
    RVec out(n);
    for (std::size_t i = 0; i < n; ++i) out[i] = z[i].real();
    return out;
  }
  const std::size_t h = n / 2;
  const auto plan = plan_cache().get_rfft(n);

  // Re-tangle into the packed half-size spectrum: Z[k] = E[k] + j·O[k] with
  // E[k] = (X[k] + conj(X[h−k]))/2, O[k] = e^{+j2πk/n}·(X[k] − conj(X[h−k]))/2.
  thread_local CVec packed;
  packed.resize(h);
  const double* __restrict twr = plan->tw_re.data();
  const double* __restrict twi = plan->tw_im.data();
  for (std::size_t k = 0; k < h; ++k) {
    const cdouble a = spectrum[k];
    const cdouble b = std::conj(spectrum[h - k]);
    const double er = 0.5 * (a.real() + b.real());
    const double ei = 0.5 * (a.imag() + b.imag());
    const double hr = 0.5 * (a.real() - b.real());
    const double hi = 0.5 * (a.imag() - b.imag());
    // conj(W^k)·(hr, hi): the plan stores forward twiddles e^{−j2πk/n}.
    const double orr = hr * twr[k] + hi * twi[k];
    const double oii = hi * twr[k] - hr * twi[k];
    packed[k] = cdouble(er - oii, ei + orr);  // E + j·O
  }
  const CVec z = ifft(packed);  // includes the 1/h scaling
  RVec out(n);
  for (std::size_t k = 0; k < h; ++k) {
    out[2 * k] = z[k].real();
    out[2 * k + 1] = z[k].imag();
  }
  return out;
}

double fft_bin_frequency(std::size_t k, std::size_t n, double fs) {
  BIS_CHECK(n > 0 && k < n);
  const auto half = n / 2;
  const double bin = k < half || n == 1
                         ? static_cast<double>(k)
                         : static_cast<double>(k) - static_cast<double>(n);
  return bin * fs / static_cast<double>(n);
}

double fft_bin_frequency_unsigned(std::size_t k, std::size_t n, double fs) {
  BIS_CHECK(n > 0 && k < n);
  return static_cast<double>(k) * fs / static_cast<double>(n);
}

}  // namespace bis::dsp

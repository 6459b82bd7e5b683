/// Runtime dispatch for the SIMD kernel layer. The target is selected once,
/// lazily, on the first kernel call: the best CPU-supported backend
/// (AVX2+FMA → SSE2 → scalar), overridden by the BIS_SIMD environment
/// variable when set, or by an explicit set_target call. Selection state is
/// a single atomic pointer; the per-call cost is one relaxed load and an
/// indirect call.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string_view>

#include "dsp/kernels/kernel_table.hpp"

namespace bis::dsp::kernels {
namespace {

using detail::KernelTable;
using detail::KernelTableF;

bool cpu_has_avx2_fma() {
#if (defined(__x86_64__) || defined(_M_X64)) && defined(__GNUC__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

const KernelTable* table_for(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return &detail::scalar_table();
#if BIS_HAVE_SIMD_BACKENDS
    case SimdTarget::kSse2:
      return &detail::sse2_table();
    case SimdTarget::kAvx2:
      return cpu_has_avx2_fma() ? &detail::avx2_table() : nullptr;
#else
    case SimdTarget::kSse2:
    case SimdTarget::kAvx2:
      return nullptr;
#endif
  }
  return nullptr;
}

/// float32 tier table for the same target. Availability mirrors the double
/// tier (a target is offered for both tiers or neither), so set_target can
/// publish the pair together.
const KernelTableF* table_f32_for(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar:
      return &detail::scalar_table_f32();
#if BIS_HAVE_SIMD_BACKENDS
    case SimdTarget::kSse2:
      return &detail::sse2_table_f32();
    case SimdTarget::kAvx2:
      return cpu_has_avx2_fma() ? &detail::avx2_table_f32() : nullptr;
#else
    case SimdTarget::kSse2:
    case SimdTarget::kAvx2:
      return nullptr;
#endif
  }
  return nullptr;
}

bool parse_target(std::string_view name, SimdTarget& out) {
  if (name == "scalar" || name == "off") {
    out = SimdTarget::kScalar;
  } else if (name == "sse2") {
    out = SimdTarget::kSse2;
  } else if (name == "avx2") {
    out = SimdTarget::kAvx2;
  } else {
    return false;
  }
  return true;
}

SimdTarget detect_target() {
  SimdTarget best = SimdTarget::kScalar;
#if BIS_HAVE_SIMD_BACKENDS
  best = cpu_has_avx2_fma() ? SimdTarget::kAvx2 : SimdTarget::kSse2;
#endif
  if (const char* env = std::getenv("BIS_SIMD")) {
    SimdTarget requested;
    if (!parse_target(env, requested)) {
      std::fprintf(stderr,
                   "BIS_SIMD=%s not recognized (scalar|sse2|avx2); using %s\n",
                   env, target_name(best));
      return best;
    }
    if (table_for(requested) == nullptr) {
      std::fprintf(stderr, "BIS_SIMD=%s unavailable on this build/CPU; using %s\n",
                   env, target_name(best));
      return best;
    }
    return requested;
  }
  return best;
}

/// Current backend. The pointer and enum travel together; both are atomics
/// written only by set_target / first-use init (benign ordering: every table
/// is immutable and valid for the life of the process).
std::atomic<const KernelTable*> g_table{nullptr};
std::atomic<const KernelTableF*> g_table_f32{nullptr};
std::atomic<SimdTarget> g_target{SimdTarget::kScalar};

/// Test-only poison switch for the float32 tier (see set_f32_test_poison).
std::atomic<bool> g_f32_poison{false};

const KernelTable& active() {
  const KernelTable* t = g_table.load(std::memory_order_acquire);
  if (t) return *t;
  const SimdTarget target = detect_target();
  g_target.store(target, std::memory_order_relaxed);
  g_table_f32.store(table_f32_for(target), std::memory_order_release);
  const KernelTable* chosen = table_for(target);
  g_table.store(chosen, std::memory_order_release);
  return *chosen;
}

void poisoned_apply_window_c(std::span<const cfloat> x,
                             std::span<const float> /*w*/,
                             std::span<cfloat> out) {
  // Deliberately wrong: drop the signal entirely. Every downstream spectrum
  // is zero, so detection/BER collapse and the tolerance gate must trip.
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = cfloat(0.0f, 0.0f);
}

const KernelTableF& poisoned_f32_table() {
  static const KernelTableF table = [] {
    KernelTableF t = detail::scalar_table_f32();
    t.apply_window_c = &poisoned_apply_window_c;
    return t;
  }();
  return table;
}

const KernelTableF& active_f32() {
  if (g_f32_poison.load(std::memory_order_relaxed)) return poisoned_f32_table();
  const KernelTableF* t = g_table_f32.load(std::memory_order_acquire);
  if (t) return *t;
  (void)active();  // first-use detection publishes both tiers
  return *g_table_f32.load(std::memory_order_acquire);
}

}  // namespace

SimdTarget active_target() {
  (void)active();  // force first-use detection
  return g_target.load(std::memory_order_relaxed);
}

const char* target_name(SimdTarget target) {
  switch (target) {
    case SimdTarget::kScalar: return "scalar";
    case SimdTarget::kSse2: return "sse2";
    case SimdTarget::kAvx2: return "avx2";
  }
  return "unknown";
}

bool target_available(SimdTarget target) { return table_for(target) != nullptr; }

bool set_target(SimdTarget target) {
  const KernelTable* t = table_for(target);
  if (!t) return false;
  g_target.store(target, std::memory_order_relaxed);
  g_table_f32.store(table_f32_for(target), std::memory_order_release);
  g_table.store(t, std::memory_order_release);
  return true;
}

bool set_target(std::string_view name) {
  SimdTarget target;
  if (!parse_target(name, target)) return false;
  return set_target(target);
}

// ---------------------------------------------------------------------------
// Public API → active table

void kmag(std::span<const cdouble> x, std::span<double> out) {
  active().mag(x, out);
}

void kcabs(std::span<const cdouble> x, std::span<double> out) {
  active().cabs(x, out);
}

void knorm(std::span<const cdouble> x, std::span<double> out) {
  active().norm(x, out);
}

void kmag_db(std::span<const cdouble> x, std::span<double> out, double floor_db) {
  active().mag_db(x, out, floor_db);
}

void kapply_window(std::span<const double> x, std::span<const double> w,
                   std::span<double> out) {
  active().apply_window_r(x, w, out);
}

void kapply_window(std::span<const cdouble> x, std::span<const double> w,
                   std::span<cdouble> out) {
  active().apply_window_c(x, w, out);
}

void kcmul(std::span<const cdouble> a, std::span<const cdouble> b,
           std::span<cdouble> out) {
  active().cmul(a, b, out);
}

void kaxpy(double a, std::span<const double> x, std::span<double> y) {
  active().axpy(a, x, y);
}

void kscale_add(std::span<double> y, double scale, double a,
                std::span<const double> x) {
  active().scale_add(y, scale, a, x);
}

void kscale(std::span<double> y, double s) { active().scale_r(y, s); }

void kscale(std::span<cdouble> y, double s) {
  // Complex scaling is element-wise over the interleaved (re, im) doubles.
  active().scale_r(
      std::span<double>(reinterpret_cast<double*>(y.data()), 2 * y.size()), s);
}

double ksum_sq(std::span<const double> x) { return active().sum_sq(x); }

double ksum_sq(std::span<const cdouble> x) {
  // Σ(re² + im²) over the interleaved doubles in the lane-blocked order.
  return active().sum_sq(std::span<const double>(
      reinterpret_cast<const double*>(x.data()), 2 * x.size()));
}

double kdot(std::span<const double> x, std::span<const double> y) {
  return active().dot(x, y);
}

void kgoertzel(std::span<const double> x, std::span<const double> coeffs,
               std::span<double> s1, std::span<double> s2) {
  // Long inputs run the scalar recurrence (measured faster past the
  // crossover; bit-identical, so the reroute is output-preserving).
  if (x.size() > kGoertzelScalarFallbackSamples) {
    detail::scalar_table().goertzel(x, coeffs, s1, s2);
    return;
  }
  active().goertzel(x, coeffs, s1, s2);
}

bool kgoertzel_prefers_scalar(std::size_t n_samples) {
  return n_samples > kGoertzelScalarFallbackSamples;
}

void ktagscore(std::span<const double> x, std::span<const std::uint32_t> idx,
               std::span<const double> w, std::span<const double> g,
               std::size_t n, std::span<double> on, std::span<double> son) {
  active().tagscore(x, idx, w, g, n, on, son);
}

void kfft_strip(const FftPlanView<double>& plan, std::size_t lanes,
                std::span<double> re, std::span<double> im) {
  active().fft_strip(plan, lanes, re, im);
}

void krfft_untangle_strip(std::span<const double> tw_re,
                          std::span<const double> tw_im, std::size_t lanes,
                          std::span<const double> z_re,
                          std::span<const double> z_im,
                          std::span<double> x_re, std::span<double> x_im) {
  active().rfft_untangle_strip(tw_re, tw_im, lanes, z_re, z_im, x_re, x_im);
}

void knorm(std::span<const double> re, std::span<const double> im,
           std::span<double> out) {
  active().norm_split(re, im, out);
}

// ---------------------------------------------------------------------------
// float32_fast tier → active f32 table

void kmag(std::span<const cfloat> x, std::span<float> out) {
  active_f32().mag(x, out);
}

void knorm(std::span<const cfloat> x, std::span<float> out) {
  active_f32().norm(x, out);
}

void kmag_db(std::span<const cfloat> x, std::span<float> out, float floor_db) {
  active_f32().mag_db(x, out, floor_db);
}

void kapply_window(std::span<const float> x, std::span<const float> w,
                   std::span<float> out) {
  active_f32().apply_window_r(x, w, out);
}

void kapply_window(std::span<const cfloat> x, std::span<const float> w,
                   std::span<cfloat> out) {
  active_f32().apply_window_c(x, w, out);
}

void kcmul(std::span<const cfloat> a, std::span<const cfloat> b,
           std::span<cfloat> out) {
  active_f32().cmul(a, b, out);
}

void kaxpy(float a, std::span<const float> x, std::span<float> y) {
  active_f32().axpy(a, x, y);
}

void kscale_add(std::span<float> y, float scale, float a,
                std::span<const float> x) {
  active_f32().scale_add(y, scale, a, x);
}

void kscale(std::span<float> y, float s) { active_f32().scale_r(y, s); }

void kscale(std::span<cfloat> y, float s) {
  active_f32().scale_r(
      std::span<float>(reinterpret_cast<float*>(y.data()), 2 * y.size()), s);
}

float ksum_sq(std::span<const float> x) { return active_f32().sum_sq(x); }

float ksum_sq(std::span<const cfloat> x) {
  return active_f32().sum_sq(std::span<const float>(
      reinterpret_cast<const float*>(x.data()), 2 * x.size()));
}

float kdot(std::span<const float> x, std::span<const float> y) {
  return active_f32().dot(x, y);
}

void kgoertzel(std::span<const float> x, std::span<const float> coeffs,
               std::span<float> s1, std::span<float> s2) {
  active_f32().goertzel(x, coeffs, s1, s2);
}

void ktagscore(std::span<const float> x, std::span<const std::uint32_t> idx,
               std::span<const float> w, std::span<const float> g,
               std::size_t n, std::span<float> on, std::span<float> son) {
  active_f32().tagscore(x, idx, w, g, n, on, son);
}

void kfft_strip(const FftPlanView<float>& plan, std::size_t lanes,
                std::span<float> re, std::span<float> im) {
  active_f32().fft_strip(plan, lanes, re, im);
}

void krfft_untangle_strip(std::span<const float> tw_re,
                          std::span<const float> tw_im, std::size_t lanes,
                          std::span<const float> z_re,
                          std::span<const float> z_im, std::span<float> x_re,
                          std::span<float> x_im) {
  active_f32().rfft_untangle_strip(tw_re, tw_im, lanes, z_re, z_im, x_re,
                                   x_im);
}

void knorm(std::span<const float> re, std::span<const float> im,
           std::span<float> out) {
  active_f32().norm_split(re, im, out);
}

namespace detail {

void set_f32_test_poison(bool enabled) {
  g_f32_poison.store(enabled, std::memory_order_relaxed);
}

}  // namespace detail

}  // namespace bis::dsp::kernels

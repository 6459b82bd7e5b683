#pragma once

/// @file kernel_table.hpp
/// Internal dispatch tables shared by the kernel backends. Each backend
/// translation unit (scalar / SSE2 / AVX2, in the double and float32 tiers)
/// fills one table with its function pointers; dispatch.cpp selects which
/// tables route the public API.

#include <complex>
#include <cstdint>
#include <span>

#include "dsp/kernels/kernels.hpp"

namespace bis::dsp::kernels::detail {

/// One dispatch table per element type: `KernelTableT<double>` backs the
/// normative bit-identical tier, `KernelTableT<float>` the opt-in
/// float32_fast tier (FMA allowed, tolerance-validated).
template <typename Real>
struct KernelTableT {
  using Cplx = std::complex<Real>;

  void (*mag)(std::span<const Cplx>, std::span<Real>);
  /// std::abs bits; double tier only (null in the float32 tables).
  void (*cabs)(std::span<const Cplx>, std::span<Real>) = nullptr;
  void (*norm)(std::span<const Cplx>, std::span<Real>);
  void (*mag_db)(std::span<const Cplx>, std::span<Real>, Real);
  void (*apply_window_r)(std::span<const Real>, std::span<const Real>,
                         std::span<Real>);
  void (*apply_window_c)(std::span<const Cplx>, std::span<const Real>,
                         std::span<Cplx>);
  void (*cmul)(std::span<const Cplx>, std::span<const Cplx>, std::span<Cplx>);
  void (*axpy)(Real, std::span<const Real>, std::span<Real>);
  void (*scale_add)(std::span<Real>, Real, Real, std::span<const Real>);
  void (*scale_r)(std::span<Real>, Real);
  Real (*sum_sq)(std::span<const Real>);
  Real (*dot)(std::span<const Real>, std::span<const Real>);
  void (*goertzel)(std::span<const Real>, std::span<const Real>,
                   std::span<Real>, std::span<Real>);
  void (*tagscore)(std::span<const Real>, std::span<const std::uint32_t>,
                   std::span<const Real>, std::span<const Real>, std::size_t,
                   std::span<Real>, std::span<Real>);
  void (*fft_strip)(const FftPlanView<Real>&, std::size_t, std::span<Real>,
                    std::span<Real>);
  void (*rfft_untangle_strip)(std::span<const Real>, std::span<const Real>,
                              std::size_t, std::span<const Real>,
                              std::span<const Real>, std::span<Real>,
                              std::span<Real>);
  void (*norm_split)(std::span<const Real>, std::span<const Real>,
                     std::span<Real>);
};

using KernelTable = KernelTableT<double>;
using KernelTableF = KernelTableT<float>;

/// Backend accessors. The scalar tables always exist; the SIMD tables are
/// compiled only on x86-64 with the BIS_SIMD CMake option ON (dispatch.cpp
/// references them under BIS_HAVE_SIMD_BACKENDS).
const KernelTable& scalar_table();
const KernelTable& sse2_table();
const KernelTable& avx2_table();

/// float32_fast tier backends. Same availability rules; the AVX2 table is
/// the only one compiled with -mfma (8-lane float + fused multiply-add).
const KernelTableF& scalar_table_f32();
const KernelTableF& sse2_table_f32();
const KernelTableF& avx2_table_f32();

}  // namespace bis::dsp::kernels::detail

#pragma once

/// @file range_align.hpp
/// BiScatter's IF-correction / range-alignment stage (paper §3.3, Fig. 7).
/// CSSK varies the chirp slope, so the same physical range lands on a
/// different IF frequency — and a different FFT-bin range spacing — every
/// chirp. Left uncorrected, a static tag smears across range bins and
/// slow-time (Doppler/modulation) processing decoheres. The fix is:
///   1. convert each chirp's bins to metres using that chirp's own
///      R_max (Eq. 15: range[n] = n/N_FFT · R_max), then
///   2. pairwise-interpolate every profile onto one common range grid.

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "radar/range_processor.hpp"

namespace bis::radar {

/// Slow-time matrix of aligned complex range profiles.
struct AlignedProfiles {
  std::vector<dsp::CVec> rows;     ///< rows[chirp][grid_bin].
  std::vector<double> range_grid;  ///< Common range axis [m].
  double chirp_period_s = 0.0;     ///< Slow-time sample interval.

  std::size_t n_chirps() const { return rows.size(); }
  std::size_t n_bins() const { return range_grid.size(); }

  /// Magnitude of one slow-time column (fixed grid bin across chirps):
  /// std::abs's bits, through kernels::kcabs.
  dsp::RVec column_magnitude(std::size_t bin) const;

  /// Writes into @p out (size n_chirps()); the column is gathered into
  /// per-thread scratch, so steady-state calls do not allocate.
  void column_magnitude(std::size_t bin, std::span<double> out) const;

  /// Complex slow-time column.
  dsp::CVec column(std::size_t bin) const;

  /// Allocation-free overload (out.size() must equal n_chirps()).
  void column(std::size_t bin, std::span<dsp::cdouble> out) const;
};

struct RangeAlignConfig {
  std::size_t grid_bins = 0;    ///< 0 = use the largest profile's N_FFT.
  double max_range_m = 0.0;     ///< 0 = min over chirps of R_max (always
                                ///< covered by every chirp).
  bool enabled = true;          ///< false = no-IF-correction baseline: stack
                                ///< raw bins directly (Fig. 7a ablation).
};

class RangeAligner {
 public:
  explicit RangeAligner(const RangeAlignConfig& config);

  /// Align a frame's per-chirp profiles onto a common range grid. The
  /// per-profile resampling is a pure map fanned across @p pool (nullptr =
  /// inline); output is bit-identical for any thread count.
  AlignedProfiles align(std::span<const RangeProfile> profiles,
                        ThreadPool* pool = nullptr) const;

  /// Buffer-reusing variant: bit-identical result written into @p out (rows
  /// and grid resized; steady state reuses their capacity across frames).
  void align_into(std::span<const RangeProfile> profiles, ThreadPool* pool,
                  AlignedProfiles& out) const;

  const RangeAlignConfig& config() const { return config_; }

 private:
  RangeAlignConfig config_;
};

/// Subtract a background row from every row (paper: "uses the first chirp
/// of each frame for background subtraction"). @p background_row selects
/// which chirp to treat as background.
void subtract_background(AlignedProfiles& profiles, std::size_t background_row = 0);

/// Windowed variant for batched multi-slot frames: rows [first, first+count)
/// form one logical frame whose background is row first + background_row;
/// rows outside the window are untouched. Bit-identical to calling
/// subtract_background on a standalone AlignedProfiles holding just that
/// window (same kaxpy over the same operands).
void subtract_background(AlignedProfiles& profiles, std::size_t first,
                         std::size_t count, std::size_t background_row);

}  // namespace bis::radar

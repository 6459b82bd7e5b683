#pragma once

/// @file radar_front_end.hpp
/// The radar's one receive chain (paper §3.3, Fig. 7): per-chirp IF
/// synthesis of a static clutter scene plus switching tag returns → per-chirp
/// range FFT → IF correction onto a common range grid (Eq. 15) → background
/// subtraction. LinkSimulator, BiScatterNetwork and InventoryEngine all run
/// their frames through it, so a tag return sits on the same clutter floor,
/// the same numeric tier and the same stage timers in all three.
///
/// A driver supplies only what differs between them:
///   - the chirp schedule (`RadarFrame::chirps`);
///   - its acquisition windows and each window's noise stream;
///   - its tag returns and their on/off rule: a modulator's per-chirp switch
///     states, or each tag's square wave;
///   - what it does with `RadarFrame::aligned` afterwards (detect,
///     detect_many or detect_slots).
///
/// Windows are the unit of determinism. A window's rows depend only on its
/// own chirps, noise stream and tags: every chirp's range FFT and regrid are
/// per-chirp pure maps, and each window subtracts its own first chirp. So a
/// window's rows are bit-identical however many windows share the frame and
/// whichever thread runs them.

#include <cstddef>
#include <span>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/system_config.hpp"
#include "obs/report.hpp"
#include "radar/range_align.hpp"
#include "radar/range_processor.hpp"

namespace bis::core {

/// One backscatter tag in a sensing window.
struct TagReturn {
  double range_m = 0.0;
  double amplitude_v = 0.0;  ///< Two-way backscatter amplitude at the radar
                             ///< ADC, before the RF-switch factor.
  double phase_rad = 0.0;    ///< Static return phase.
  double mod_freq_hz = 0.0;  ///< Square-wave beacon frequency.
  double duty_phase = 0.0;   ///< Square-wave phase offset, [0, 1).
};

/// Chirps [first, first + count) of a frame: one acquisition, synthesized
/// from its own noise stream.
struct SensingWindow {
  std::size_t first = 0;
  std::size_t count = 0;
  Rng rng;                          ///< The window's synthesis stream.
  std::span<const TagReturn> tags;
  /// Per-chirp switch state shared by every tag (nonzero = reflective), one
  /// per window chirp: a tag modulator's schedule. Empty: each tag follows
  /// its square wave, reflective while frac(t·f + duty_phase) < 0.5, with t
  /// the window-local slow time (the wave restarts at the window boundary).
  std::span<const int> states;
};

/// Every buffer one frame's front-end pass touches. Owned by the driver (a
/// LinkServer job, a network, an inventory engine) and reused across frames:
/// with warm capacities a pass allocates nothing.
struct RadarFrame {
  std::vector<rf::ChirpParams> chirps;  ///< The schedule (driver-filled).
  /// IF samples per chirp. Exactly one of the two is populated per frame,
  /// selected by SystemConfig::precision: float32_fast carries the
  /// synthesize → range-FFT leg in float and converts to the double
  /// RangeProfile at the range-FFT output.
  std::vector<dsp::CVec> if_samples;
  std::vector<dsp::CVecF> if_samples_f32;
  std::vector<radar::RangeProfile> profiles;
  radar::AlignedProfiles aligned;

  /// Mean IF samples per chirp of the last synthesis.
  double mean_samples() const;
};

class RadarFrontEnd {
 public:
  /// The scene (office clutter, RF-switch factors), IF synthesis, range
  /// processing, IF correction, background subtraction and numeric tier of
  /// @p config.
  explicit RadarFrontEnd(const SystemConfig& config);

  /// Size @p frame's per-chirp buffers for @p n_chirps chirps and reserve
  /// each at the size of @p longest, the longest chirp the driver can
  /// schedule into them. Under CSSK a buffer would otherwise regrow whenever
  /// its position draws a longer chirp than it has held before.
  void reserve(RadarFrame& frame, std::size_t n_chirps,
               const rf::ChirpParams& longest) const;

  /// Synthesize every window of @p frame's schedule. The windows are
  /// disjoint and fan across @p pool; each runs its own synthesizer on its
  /// own rows.
  void synthesize(RadarFrame& frame, std::span<const SensingWindow> windows,
                  ThreadPool* pool, obs::RunReport& report,
                  obs::ServerStatsCollector* server = nullptr) const;
  /// Range-FFT every chirp (float32 or double IF samples, by tier).
  void range_fft(RadarFrame& frame, ThreadPool* pool, obs::RunReport& report,
                 obs::ServerStatsCollector* server = nullptr) const;
  /// Align onto the common range grid, then background-subtract each
  /// @p window_chirps-chirp window against its own first chirp.
  void if_correct(RadarFrame& frame, std::size_t window_chirps,
                  ThreadPool* pool, obs::RunReport& report,
                  obs::ServerStatsCollector* server = nullptr) const;

  /// synthesize, range_fft and if_correct for windows of equal length.
  const radar::AlignedProfiles& run(RadarFrame& frame,
                                    std::span<const SensingWindow> windows,
                                    ThreadPool* pool, obs::RunReport& report) const;

  /// One dry pass per chirp of @p alphabet: builds the shared Hann-window,
  /// FFT-plan (and, under float32_fast, float FFT) cache entries, the regrid
  /// plans when the grid is pinned, and sizes the calling thread's DSP
  /// scratch and its scene scratch for a one-tag window. Touches no RNG or
  /// report. Safe to call concurrently.
  void warm_caches(const phy::SlopeAlphabet& alphabet) const;

 private:
  void synthesize_window(RadarFrame& frame, const SensingWindow& window) const;

  radar::IfSynthConfig if_synth_;
  double chirp_period_s_;
  dsp::Precision precision_;
  bool background_subtraction_;
  std::vector<radar::IfReturn> clutter_;  ///< Static clutter prefix.
  double reflect_;  ///< RF-switch reflective amplitude factor.
  double leak_;     ///< Absorptive-state leakage factor.
  radar::RangeProcessor processor_;
  radar::RangeAligner aligner_;
};

/// The fixed (non-data-bearing) sensing slot of a CSSK alphabet — the middle
/// data symbol, the slope every pure sensing chirp uses.
std::size_t fixed_sensing_slot(const phy::SlopeAlphabet& alphabet);

/// Two-way backscatter amplitude (volts at the radar ADC) of a tag at
/// @p range_m under @p base's link budget, evaluated at the band center.
double tag_backscatter_amplitude(const SystemConfig& base, double range_m);

/// The static office-clutter prefix of a sensing scene, link-budget scaled.
std::vector<radar::IfReturn> clutter_returns(const SystemConfig& base);

}  // namespace bis::core

#pragma once

/// @file scene.hpp
/// Radar scene model: the tag plus static clutter scatterers (the paper's
/// indoor office multipath shows up at the radar as clutter returns that
/// background subtraction must remove, §3.3).

#include <vector>

namespace bis::radar {

/// A static point scatterer (furniture, walls, ...).
struct Scatterer {
  double range_m = 0.0;
  double amplitude_v = 0.0;  ///< Received IF amplitude [V] at the radar ADC.
  double phase_rad = 0.0;    ///< Static bulk phase of the return.
};

struct Scene {
  std::vector<Scatterer> clutter;

  /// Tag geometry. The tag's per-chirp amplitude is supplied separately by
  /// the modulation schedule; this records where it is and how strong its
  /// fully-reflective return is.
  double tag_range_m = 2.0;
  double tag_amplitude_v = 0.0;
  double tag_phase_rad = 0.0;
  bool has_tag = true;

  /// An office-like clutter set with fixed positions; per-object amplitude
  /// is supplied by the caller's link budget (absolute, so the clutter does
  /// not scale with the tag's range — the physical situation).
  struct ClutterSpec {
    double range_m;
    double rcs_offset_db;  ///< Strength relative to the reference scatterer.
    double phase_rad;
  };
  static const std::vector<ClutterSpec>& office_clutter_layout();
};

}  // namespace bis::radar

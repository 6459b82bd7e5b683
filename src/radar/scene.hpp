#pragma once

/// @file scene.hpp
/// Radar scene model: the static clutter scatterers around the tag (the
/// paper's indoor office multipath shows up at the radar as clutter returns
/// that background subtraction must remove, §3.3). core::RadarFrontEnd
/// scales this layout by the link budget into every driver's scene.

#include <vector>

namespace bis::radar {

struct Scene {
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

#pragma once

/// @file system_config.hpp
/// End-to-end system presets matching the paper's two prototypes (§4):
///   - 9 GHz chirp generator (TI LMX2492EVM + amplifier, 7 dBm, up to 1 GHz
///     of configurable bandwidth),
///   - 24 GHz Analog Devices TinyRad (8 dBm, 250 MHz bandwidth, better
///     oscillator — the reason Fig. 17 shows it slightly ahead).
///
/// A SystemConfig describes one run and holds only per-run settings. The
/// process-wide switches are set directly, never through a config:
/// telemetry with `obs::set_enabled` or `BIS_TRACE`, live metric export with
/// `obs::TelemetrySink::ensure_global`, SIMD dispatch with
/// `dsp::kernels::set_target` or `BIS_SIMD`.

#include <cstdint>
#include <optional>
#include <string>

#include "dsp/precision.hpp"
#include "phy/packet.hpp"
#include "phy/slope_alphabet.hpp"
#include "phy/uplink.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/range_align.hpp"
#include "rf/channel.hpp"
#include "rf/link_budget.hpp"
#include "tag/tag_node.hpp"

namespace bis::core {

struct RadarPreset {
  std::string name;
  rf::RadarRf rf;
  double start_frequency_hz = 9e9;
  double bandwidth_hz = 1e9;
  double chirp_period_s = 120e-6;        ///< Paper evaluation setup (§5).
  double min_chirp_duration_s = 20e-6;   ///< Commercial radar bound (§6).
  double max_duty = 0.8;                 ///< §3.1.
  radar::IfSynthConfig if_synth;

  /// TI chirp-generator prototype at 9 GHz (default 1 GHz bandwidth).
  static RadarPreset chirpgen_9ghz(double bandwidth_hz = 1e9);

  /// Analog Devices TinyRad at 24 GHz, 250 MHz bandwidth.
  static RadarPreset tinyrad_24ghz();
};

struct TagPreset {
  std::string name;
  tag::TagNodeConfig node;
  rf::TagRf rf;

  /// Paper prototype: ADRF5144 switch + ZC2PD splitters + ADL6010 detector,
  /// with the given delay-line length difference (paper sweeps 9/18/45 in).
  static TagPreset prototype(double delay_line_inches = 45.0,
                             std::optional<std::uint8_t> address = std::nullopt);
};

struct SystemConfig {
  RadarPreset radar = RadarPreset::chirpgen_9ghz();
  TagPreset tag = TagPreset::prototype();
  std::size_t bits_per_symbol = 5;
  phy::PacketConfig packet;
  rf::ChannelModel channel = rf::ChannelModel::indoor_office();
  double tag_range_m = 2.0;
  double calibration_range_m = 0.5;  ///< §5: calibration at 0.5 m.
  double max_beat_fraction = 0.3;    ///< Cap Δf_max at this fraction of the
                                     ///< tag ADC rate (image-interference
                                     ///< margin below Nyquist).
  std::size_t min_demod_window_samples = 16;  ///< Floor on the tag's
                                     ///< per-chirp analysis window; raises
                                     ///< the minimum chirp duration when the
                                     ///< tag ADC is slow.
  bool gray_coding = true;           ///< Gray-map data symbols onto slope
                                     ///< slots (ablation knob).
  bool use_background_subtraction = true;
  radar::RangeAlignConfig if_correction;  ///< IF-correction (range alignment)
                                     ///< stage. Defaults derive the grid per
                                     ///< frame from the chirps present; the
                                     ///< streaming link server pins
                                     ///< grid_bins/max_range_m to the whole
                                     ///< alphabet so the grid — and the
                                     ///< regrid-plan cache working set — is
                                     ///< identical for every frame.
  std::uint64_t seed = 1;
  std::size_t dsp_threads = 0;       ///< Frame-level DSP concurrency: 0 =
                                     ///< shared hardware-sized pool, 1 =
                                     ///< strictly sequential, k = private
                                     ///< k-lane pool. Results are
                                     ///< bit-identical for every setting.
  dsp::Precision precision = dsp::Precision::kDoubleStrict;
                                     ///< Numeric tier for the per-frame inner
                                     ///< loop (synthesis → window → range
                                     ///< FFT and the tag downlink stream).
                                     ///< kDoubleStrict (default) is the
                                     ///< normative bit-identical path;
                                     ///< kFloat32Fast runs float32+FMA
                                     ///< kernels and is validated by
                                     ///< tolerance, not parity (DESIGN.md
                                     ///< §16). Per-run, not process-wide.

  /// Derive the CSSK alphabet for this radar+tag combination. Clamps the
  /// maximum beat frequency below the tag ADC Nyquist bound by raising the
  /// minimum chirp duration when needed.
  phy::SlopeAlphabet make_alphabet() const;
};

/// Compact human-readable key identifying a configuration, used to label
/// telemetry run reports (obs::RunReport::config), e.g.
/// "9GHz chirp generator (LMX2492EVM)|prototype|bw=1e+09|range=2|seed=1".
std::string config_key(const SystemConfig& config);

}  // namespace bis::core

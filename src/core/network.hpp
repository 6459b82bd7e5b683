#pragma once

/// @file network.hpp
/// Multi-tag BiScatter network (paper §6 "Extension to Multi-Radar
/// Multi-Tag Scenarios"): one radar, several tags, each with a unique
/// uplink modulation frequency and an 8-bit address for downlink packets.
/// The radar broadcasts or addresses packets; every tag decodes the frame
/// and filters by address. On the uplink, the radar separates tags in the
/// slow-time spectrum by their assigned frequencies and localizes each.
///
/// The network holds lightweight per-tag state (a TagNode plus its derived
/// SystemConfig and report) instead of one full LinkSimulator per tag, and
/// senses every tag from ONE shared frame through core::RadarFrontEnd: one
/// window forked from the network's sensing RNG, every tag on its own
/// square wave. The range–slow-time spectrum is computed once and all tags
/// are scored through the batched radar::TagDetector::detect_many bank (see
/// DESIGN.md on batched multi-tag detection). Detection decisions are
/// bit-identical to running the sequential single-tag detector per tag.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/link_simulator.hpp"
#include "obs/report.hpp"
#include "phy/bits.hpp"
#include "radar/tag_detector.hpp"

namespace bis::core {

struct NetworkTag {
  std::uint8_t address = 0;
  double range_m = 2.0;
  double mod_freq_hz = 1000.0;
};

struct NetworkConfig {
  SystemConfig base;          ///< Radar + tag hardware template.
  std::vector<NetworkTag> tags;
  std::size_t frame_chirps = 256;
};

struct TagObservation {
  std::uint8_t address = 0;
  bool detected = false;
  double range_m = 0.0;
  double range_error_m = 0.0;
  double snr_db = 0.0;
};

struct DownlinkDelivery {
  std::uint8_t address = 0;
  bool locked = false;
  bool crc_ok = false;
  bool address_match = false;  ///< Accepted (addressed to it or broadcast).
  phy::Bits payload;
};

/// One radar serving several tags.
class BiScatterNetwork {
 public:
  explicit BiScatterNetwork(const NetworkConfig& config);

  /// Calibrate every tag (one-time, short range).
  void calibrate_all();

  /// Broadcast (address = 0xFF) or unicast a downlink packet; returns what
  /// every tag decoded. The over-the-air frame (packet → CSSK chirps) is
  /// built once; each tag then runs its own propagation + decode.
  std::vector<DownlinkDelivery> send_downlink(std::uint8_t address,
                                              const phy::Bits& payload);

  /// One sensing frame with every tag beaconing at its own frequency;
  /// the radar localizes each tag. One IF synthesis + range FFT + alignment
  /// pass for the whole network, then one batched detect_many call scoring
  /// every tag's frequency signature against the shared spectra. Each call
  /// continues the network's sensing RNG stream, so consecutive frames draw
  /// independent schedules and noise.
  std::vector<TagObservation> sense_all(bool downlink_active = false);

  const NetworkConfig& config() const { return config_; }

  /// Assigned-frequency pairs closer than the slow-time FFT resolution
  /// 1/(frame_chirps · chirp_period) — tags a single frame cannot separate.
  /// Computed once at construction; accumulated into the report per sensing
  /// frame.
  std::size_t mod_freq_collisions() const { return collisions_; }

  // ---- Telemetry (see obs/report.hpp) ----

  /// Radar-side stats accumulated by this network object (broadcast
  /// deliveries, sensing frames/chirps, detections, frequency collisions).
  obs::RunReport report() const;

  /// JSON: {"network": <network report>, "links": [<per-tag reports>]}.
  std::string report_json() const;

 private:
  /// Per-tag state: the derived single-tag SystemConfig (range, address,
  /// OOK uplink at the tag's frequency, decorrelated seed), the tag node
  /// itself, and a per-tag report keyed by that config.
  struct TagState {
    SystemConfig config;
    tag::TagNode node;
    obs::RunReport report;

    TagState(const SystemConfig& cfg, const phy::SlopeAlphabet& alphabet)
        : config(cfg),
          node(effective_tag_node_config(cfg), alphabet,
               Rng(cfg.seed ^ 0x7A67ull)) {
      report.config = config_key(cfg);
    }
  };

  NetworkConfig config_;
  phy::SlopeAlphabet alphabet_;  ///< Shared CSSK alphabet — identical for
                                 ///< every tag (independent of range, seed,
                                 ///< and uplink scheme).
  std::vector<std::unique_ptr<TagState>> tags_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< When base.dsp_threads > 1.
  ThreadPool* pool_ = nullptr;              ///< Frame DSP pool (see SystemConfig).
  obs::RunReport report_;                   ///< Radar-side run telemetry.
  Rng sense_rng_;  ///< sense_all's chirp schedule and noise; seeded once,
                   ///< so each sensing frame draws fresh ones.

  RadarFrontEnd front_end_;
  RadarFrame frame_;                     ///< Reused sensing-frame buffers.
  std::vector<TagReturn> tag_returns_;   ///< One per tag, fixed.
  radar::TagDetector detector_;
  std::vector<radar::TagTarget> targets_;      ///< One per tag, fixed.
  std::vector<radar::TagDetection> detections_;  ///< detect_many output.
  std::size_t collisions_ = 0;   ///< See mod_freq_collisions().
  std::unique_ptr<bool[]> flags_;  ///< Absorptive flags for downlink frames.
  std::size_t flags_capacity_ = 0;
};

/// Assign well-separated modulation frequencies to @p n tags below the
/// slow-time Nyquist bound for @p chirp_period_s.
std::vector<double> assign_mod_frequencies(std::size_t n, double chirp_period_s);

/// Count assigned-frequency pairs closer than the slow-time FFT resolution
/// 1/(n_chirps · chirp_period_s) — adjacent pairs after sorting. Such pairs
/// land in the same spectral bin and cannot be separated within one frame;
/// BiScatterNetwork surfaces the count per sensing frame in its RunReport.
std::size_t count_mod_freq_collisions(std::span<const double> freqs_hz,
                                      std::size_t n_chirps,
                                      double chirp_period_s);

}  // namespace bis::core

#include "core/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace bis::core {
namespace {

radar::TagDetectorConfig network_detector_config(const NetworkConfig& config) {
  BIS_CHECK(!config.tags.empty());
  radar::TagDetectorConfig det_cfg;
  // The config's own frequency is only detect()'s default target; sense_all
  // always scores through detect_many with the per-tag target list.
  det_cfg.expected_mod_freq_hz = config.tags.front().mod_freq_hz;
  det_cfg.precision = config.base.precision;
  return det_cfg;
}

}  // namespace

std::vector<double> assign_mod_frequencies(std::size_t n, double chirp_period_s) {
  BIS_CHECK(n >= 1);
  BIS_CHECK(chirp_period_s > 0.0);
  const double nyquist = 1.0 / (2.0 * chirp_period_s);
  // Spread tags across (0.15, 0.85)·Nyquist, avoiding DC clutter and the
  // band edge.
  std::vector<double> freqs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double frac =
        0.15 + 0.70 * (static_cast<double>(i) + 0.5) / static_cast<double>(n);
    freqs[i] = frac * nyquist;
  }
  return freqs;
}

std::size_t count_mod_freq_collisions(std::span<const double> freqs_hz,
                                      std::size_t n_chirps,
                                      double chirp_period_s) {
  if (freqs_hz.size() < 2 || n_chirps == 0 || chirp_period_s <= 0.0) return 0;
  const double resolution_hz =
      1.0 / (static_cast<double>(n_chirps) * chirp_period_s);
  std::vector<double> sorted(freqs_hz.begin(), freqs_hz.end());
  std::sort(sorted.begin(), sorted.end());
  std::size_t collisions = 0;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i] - sorted[i - 1] < resolution_hz) ++collisions;
  }
  return collisions;
}

BiScatterNetwork::BiScatterNetwork(const NetworkConfig& config)
    : config_(config),
      alphabet_(config.base.make_alphabet()),
      sense_rng_(config.base.seed ^ 0x5E25Eull),
      front_end_(config.base),
      detector_(network_detector_config(config)) {
  BIS_CHECK(!config_.tags.empty());
  report_.config =
      config_key(config_.base) + "|tags=" + std::to_string(config_.tags.size());
  pool_ = resolve_dsp_pool(config_.base.dsp_threads, owned_pool_);

  const std::size_t n = config_.tags.size();
  tags_.reserve(n);
  tag_returns_.reserve(n);
  targets_.reserve(n);
  std::vector<double> freqs;
  freqs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& t = config_.tags[i];
    SystemConfig sc = config_.base;
    sc.tag_range_m = t.range_m;
    sc.tag.node.address = t.address;
    sc.packet.tag_address = t.address;  // per-tag default; overridden on send
    sc.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
    sc.tag.node.uplink.mod_frequencies_hz = {t.mod_freq_hz};
    sc.seed = config_.base.seed + 101 * (i + 1);
    tags_.push_back(std::make_unique<TagState>(sc, alphabet_));
    // Every tag beacons its square wave from the frame start (duty phase 0).
    tag_returns_.push_back({t.range_m,
                            tag_backscatter_amplitude(config_.base, t.range_m),
                            0.37 * static_cast<double>(i), t.mod_freq_hz, 0.0});
    targets_.push_back({t.mod_freq_hz, {}});
    freqs.push_back(t.mod_freq_hz);
  }
  collisions_ = count_mod_freq_collisions(freqs, config_.frame_chirps,
                                          config_.base.radar.chirp_period_s);
}

void BiScatterNetwork::calibrate_all() {
  for (auto& tag : tags_) {
    const auto paths =
        incident_paths_for(tag->config, tag->config.calibration_range_m);
    tag->node.calibrate(paths.front().amplitude_v);
  }
}

std::vector<DownlinkDelivery> BiScatterNetwork::send_downlink(
    std::uint8_t address, const phy::Bits& payload) {
  BIS_TRACE_SPAN("core.network_downlink");
  ++report_.downlink_frames;

  // The same over-the-air packet reaches every tag: build the frame (packet
  // → CSSK chirps → absorptive flags) once and reuse it for all of them.
  phy::PacketConfig pkt = config_.base.packet;
  pkt.tag_address = address;
  const phy::DownlinkPacket packet(pkt, payload);
  const auto frame = packet.to_frame(alphabet_);
  const std::vector<rf::ChirpParams>& chirps = frame.chirps();
  if (chirps.size() > flags_capacity_) {
    flags_.reset(new bool[chirps.size()]);
    flags_capacity_ = chirps.size();
  }
  std::fill_n(flags_.get(), chirps.size(), true);
  const std::span<const bool> flags(flags_.get(), chirps.size());

  std::vector<DownlinkDelivery> out;
  out.reserve(tags_.size());
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    // Each tag simulates its own propagation and decoding of the broadcast.
    auto& tag = *tags_[i];
    const auto paths = incident_paths_for(tag.config, tag.config.tag_range_m);
    tag.node.frontend().auto_gain(paths);
    dsp::RVec stream;
    {
      obs::StageScope scope(obs::Stage::kTagFrontend, report_);
      stream = tag.node.frontend().receive_frame(chirps, paths, flags);
    }
    tag::TagNode::DownlinkReception rx;
    {
      obs::StageScope scope(obs::Stage::kTagDecode, report_);
      rx = tag.node.receive_downlink(stream, pkt);
    }

    DownlinkDelivery d;
    d.address = config_.tags[i].address;
    d.locked = rx.decode.locked;
    d.crc_ok = rx.packet.crc_ok;
    d.address_match = rx.packet.address_match && rx.packet.crc_ok && d.locked;
    if (d.address_match) d.payload = rx.packet.payload;
    ++report_.sync_attempts;
    ++report_.crc_attempts;
    if (d.locked) ++report_.sync_locks;
    if (d.crc_ok) ++report_.crc_passes;
    ++tag.report.downlink_frames;
    ++tag.report.sync_attempts;
    ++tag.report.crc_attempts;
    if (d.locked) ++tag.report.sync_locks;
    if (d.crc_ok) ++tag.report.crc_passes;
    out.push_back(std::move(d));
  }
  return out;
}

std::vector<TagObservation> BiScatterNetwork::sense_all(bool downlink_active) {
  BIS_TRACE_SPAN("core.network_sense");

  // Per-chirp schedule: the fixed sensing slope, or random CSSK slopes
  // while the downlink is active.
  const std::size_t n_chirps = config_.frame_chirps;
  std::vector<rf::ChirpParams>& chirps = frame_.chirps;
  chirps.clear();
  chirps.reserve(n_chirps);
  const std::size_t fixed_slot = fixed_sensing_slot(alphabet_);
  for (std::size_t i = 0; i < n_chirps; ++i) {
    const std::size_t slot =
        downlink_active
            ? alphabet_.slot_for_data(
                  sense_rng_.uniform_index(alphabet_.data_symbol_count()))
            : fixed_slot;
    chirps.push_back(alphabet_.chirp(slot));
  }

  ++report_.uplink_frames;
  report_.chirps_processed += n_chirps;
  report_.mod_freq_collisions += collisions_;
  const SensingWindow window{0, n_chirps, sense_rng_.fork(), tag_returns_, {}};
  front_end_.run(frame_, std::span<const SensingWindow>(&window, 1), pool_,
                 report_);

  // One batched pass scores every tag against the shared spectra —
  // decision- and score-identical to a per-tag sequential detect loop.
  detections_.resize(targets_.size());
  {
    obs::StageScope scope(obs::Stage::kDetect, report_);
    detector_.detect_many(frame_.aligned, targets_, detections_, pool_);
  }

  std::vector<TagObservation> out;
  out.reserve(tags_.size());
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const radar::TagDetection& det = detections_[i];
    TagObservation obs;
    obs.address = config_.tags[i].address;
    obs.detected = det.found;
    obs.range_m = det.range_m;
    obs.range_error_m = std::abs(det.range_m - config_.tags[i].range_m);
    obs.snr_db = det.snr_db;
    // The SNR mean is over attempts (RunReport::mean_detector_snr_db), so a
    // miss adds its SNR too, as LinkSimulator's fold does.
    for (obs::RunReport* r : {&report_, &tags_[i]->report}) {
      ++r->detection_attempts;
      r->detector_snr_sum_db += det.snr_db;
      r->last_detector_snr_db = det.snr_db;
      if (det.found) ++r->detections;
    }
    out.push_back(obs);
  }
  return out;
}

obs::RunReport BiScatterNetwork::report() const { return report_; }

std::string BiScatterNetwork::report_json() const {
  std::string out;
  out.reserve(768 + 512 * tags_.size());
  out += "{\n  \"network\": ";
  report().append_json(out);
  out += ",\n  \"links\": [";
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    if (i != 0) out += ',';
    out += '\n';
    tags_[i]->report.append_json(out);
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace bis::core

#include "core/link_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/units.hpp"
#include "obs/trace.hpp"

namespace bis::core {

tag::TagNodeConfig effective_tag_node_config(const SystemConfig& config) {
  tag::TagNodeConfig node = config.tag.node;
  // The uplink cadence must match the radar frame cadence, and the decoder
  // state machine must know the protocol's sync-field length.
  node.uplink.chirp_period_s = config.radar.chirp_period_s;
  node.expected_header_chirps = config.packet.header_chirps;
  node.expected_sync_chirps = config.packet.sync_chirps;
  // The tag frontend runs the same numeric tier as the radar-side pipeline.
  node.frontend.precision = config.precision;
  return node;
}

std::vector<tag::IncidentPath> incident_paths_for(const SystemConfig& config,
                                                  double range_m) {
  const double p_dbm = rf::downlink_power_at_tag_dbm(
      config.radar.rf, config.tag.rf, range_m,
      config.radar.start_frequency_hz + config.radar.bandwidth_hz / 2.0);
  // Peak voltage of a real RF carrier with this power into 1 Ω.
  const double a_los = std::sqrt(2.0 * dbm_to_watts(p_dbm));
  std::vector<tag::IncidentPath> paths;
  paths.push_back({a_los, 0.0, 0.0});
  for (const auto& tap : config.channel.taps) {
    paths.push_back({a_los * db_to_amplitude(tap.relative_gain_db),
                     tap.excess_delay_s, tap.phase_rad});
  }
  return paths;
}

namespace {

radar::TagDetectorConfig make_uplink_detector_config(const phy::UplinkConfig& ul,
                                                     dsp::Precision precision) {
  radar::TagDetectorConfig det_cfg;
  det_cfg.precision = precision;
  det_cfg.expected_mod_freq_hz = ul.mod_frequencies_hz.front();
  if (ul.scheme == phy::UplinkScheme::kFsk)
    det_cfg.candidate_mod_freqs_hz = ul.mod_frequencies_hz;
  det_cfg.duty_cycle = ul.duty_cycle;
  // FSK hops tones per symbol; integrate detection per block.
  if (ul.scheme == phy::UplinkScheme::kFsk)
    det_cfg.block_chirps = ul.chirps_per_symbol;
  return det_cfg;
}

}  // namespace

void UplinkFrameJob::reset_result() {
  result.detection = radar::TagDetection{};
  result.decode.symbols.clear();
  result.decode.bits.clear();
  result.decode.symbol_confidence.clear();
  result.bit_errors = 0;
  result.bits_compared = 0;
  result.range_error_m = 0.0;
  result.snr_processed_db = 0.0;
  result.snr_per_chirp_db = 0.0;
  result.downlink_active = false;
}

ThreadPool* resolve_dsp_pool(std::size_t dsp_threads,
                             std::unique_ptr<ThreadPool>& owned) {
  owned.reset();
  if (dsp_threads == 1) return nullptr;
  if (dsp_threads == 0) return &global_pool();
  owned = std::make_unique<ThreadPool>(dsp_threads);
  return owned.get();
}

LinkSimulator::LinkSimulator(const SystemConfig& config)
    : LinkSimulator(config, config.make_alphabet()) {}

LinkSimulator::LinkSimulator(const SystemConfig& config,
                             const phy::SlopeAlphabet& shared_alphabet)
    : config_(config),
      alphabet_(shared_alphabet),
      rng_(config.seed),
      tag_(effective_tag_node_config(config), alphabet_, Rng(config.seed ^ 0x7A67ull)),
      front_end_(config),
      tag_return_{config.tag_range_m,
                  tag_backscatter_amplitude(config, config.tag_range_m)},
      sensing_chirp_(alphabet_.chirp(fixed_sensing_slot(alphabet_))),
      longest_chirp_(sensing_chirp_),
      uplink_detector_(make_uplink_detector_config(tag_.modulator().config(), config.precision)),
      uplink_decoder_(tag_.modulator().config()),
      pool_(resolve_dsp_pool(config.dsp_threads, owned_pool_)) {
  report_.config = config_key(config_);
  for (std::size_t slot = 0; slot < alphabet_.slot_count(); ++slot)
    if (alphabet_.chirp(slot).duration_s > longest_chirp_.duration_s)
      longest_chirp_ = alphabet_.chirp(slot);
}

void LinkSimulator::warm_caches() const { front_end_.warm_caches(alphabet_); }

double LinkSimulator::downlink_power_at_tag_dbm(double range_m) const {
  return rf::downlink_power_at_tag_dbm(
      config_.radar.rf, config_.tag.rf, range_m,
      config_.radar.start_frequency_hz + config_.radar.bandwidth_hz / 2.0);
}

double LinkSimulator::uplink_power_at_radar_dbm(double range_m) const {
  return rf::uplink_power_at_radar_dbm(
      config_.radar.rf, config_.tag.rf, range_m,
      config_.radar.start_frequency_hz + config_.radar.bandwidth_hz / 2.0);
}

std::vector<tag::IncidentPath> LinkSimulator::incident_paths(double range_m) const {
  return incident_paths_for(config_, range_m);
}

double LinkSimulator::downlink_envelope_snr_db(double range_m) const {
  // Tone amplitude of the LoS self-beat at the detector output.
  const double p_dbm = downlink_power_at_tag_dbm(range_m);
  const double a = std::sqrt(2.0 * dbm_to_watts(p_dbm)) *
                   db_to_amplitude(-config_.tag.node.frontend.rf_switch.insertion_loss_db);
  const double a_line = a / std::sqrt(2.0);
  const rf::DelayLinePair line(config_.tag.node.frontend.delay_line);
  const double long_scale = db_to_amplitude(
      -line.insertion_loss_db(config_.radar.start_frequency_hz));
  const double tone = config_.tag.node.frontend.envelope.conversion_gain * a_line *
                      a_line * long_scale;
  const double noise_rms =
      config_.tag.node.frontend.envelope.output_noise_density *
      std::sqrt(config_.tag.node.frontend.adc.sample_rate_hz / 2.0);
  BIS_CHECK(noise_rms > 0.0);
  return to_db((tone * tone / 2.0) / (noise_rms * noise_rms));
}

void LinkSimulator::calibrate_tag() {
  const auto paths = incident_paths(config_.calibration_range_m);
  tag_.calibrate(paths.front().amplitude_v);
}

DownlinkRunResult LinkSimulator::run_downlink(const phy::Bits& payload) {
  BIS_TRACE_SPAN("core.run_downlink");
  const phy::DownlinkPacket packet(config_.packet, payload);
  const auto frame = packet.to_frame(alphabet_);
  const auto paths = incident_paths(config_.tag_range_m);
  tag_.frontend().auto_gain(paths);

  // Sequential downlink mode: the tag stays absorptive for the whole packet.
  const std::vector<rf::ChirpParams>& chirps = frame.chirps();
  std::unique_ptr<bool[]> flags(new bool[frame.size()]);
  std::fill_n(flags.get(), frame.size(), true);
  dsp::RVec stream;
  {
    obs::StageScope scope(obs::Stage::kTagFrontend, report_);
    stream = tag_.frontend().receive_frame(
        chirps, paths, std::span<const bool>(flags.get(), frame.size()));
  }

  tag::TagNode::DownlinkReception reception;
  {
    obs::StageScope scope(obs::Stage::kTagDecode, report_);
    reception = tag_.receive_downlink(stream, config_.packet);
  }

  DownlinkRunResult result;
  result.decode = std::move(reception.decode);
  result.parsed = std::move(reception.packet);
  result.locked = result.decode.locked;
  result.crc_ok = result.parsed.crc_ok;
  result.address_match = result.parsed.address_match;

  const auto& sent = packet.framed_bits();
  result.bits_compared = sent.size();
  if (!result.locked) {
    result.bit_errors = sent.size();
  } else {
    const auto& rx = result.decode.bits;
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (i >= rx.size() || rx[i] != sent[i]) ++result.bit_errors;
    }
  }
  ++report_.downlink_frames;
  record_downlink(result);
  return result;
}

void LinkSimulator::record_downlink(const DownlinkRunResult& result) {
  ++report_.sync_attempts;
  ++report_.crc_attempts;
  if (result.locked) ++report_.sync_locks;
  if (result.crc_ok) ++report_.crc_passes;
  report_.downlink_bits += result.bits_compared;
  report_.downlink_bit_errors += result.bit_errors;
}

void LinkSimulator::prepare_uplink_frame(const phy::Bits& bits,
                                         bool downlink_active,
                                         UplinkFrameJob& job) {
  const auto& ul = tag_.modulator().config();
  const std::size_t bps = phy::uplink_bits_per_symbol(ul);
  const std::size_t n_symbols = (bits.size() + bps - 1) / bps;
  BIS_CHECK(n_symbols >= 1);
  const std::size_t n_chirps = n_symbols * ul.chirps_per_symbol;

  job.sent_bits.assign(bits.begin(), bits.end());
  job.downlink_active = downlink_active;
  tag_.modulator().queue_bits(bits);
  tag_.modulator().next_states(n_chirps, job.tag_states);

  std::vector<rf::ChirpParams>& chirps = job.frame.chirps;
  chirps.clear();
  chirps.reserve(n_chirps);
  for (std::size_t i = 0; i < n_chirps; ++i) {
    chirps.push_back(
        downlink_active
            ? alphabet_.chirp(alphabet_.slot_for_data(
                  rng_.uniform_index(alphabet_.data_symbol_count())))
            : sensing_chirp_);
  }
  // Reserve at the longest chirp this frame can draw, so steady-state frames
  // allocate nothing however CSSK orders its slopes.
  front_end_.reserve(job.frame, n_chirps,
                     downlink_active ? longest_chirp_ : sensing_chirp_);
}

void LinkSimulator::stage_synthesize(UplinkFrameJob& job,
                                     obs::ServerStatsCollector* server) {
  const std::size_t n = job.frame.chirps.size();
  BIS_CHECK(n == job.tag_states.size());
  const SensingWindow window{0, n, rng_.fork(),
                             std::span<const TagReturn>(&tag_return_, 1),
                             job.tag_states};
  front_end_.synthesize(job.frame, std::span<const SensingWindow>(&window, 1),
                        nullptr, report_, server);
}

void LinkSimulator::stage_range_fft(UplinkFrameJob& job, ThreadPool* pool,
                                    obs::ServerStatsCollector* server) {
  front_end_.range_fft(job.frame, pool, report_, server);
}

void LinkSimulator::stage_if_correct(UplinkFrameJob& job, ThreadPool* pool,
                                     obs::ServerStatsCollector* server) {
  front_end_.if_correct(job.frame, job.frame.chirps.size(), pool, report_,
                        server);
}

void LinkSimulator::stage_detect(UplinkFrameJob& job, ThreadPool* pool,
                                 obs::ServerStatsCollector* server) {
  obs::StageScope scope(obs::Stage::kDetect, report_, server);
  const std::size_t n = job.frame.chirps.size();
  job.result.downlink_active = job.downlink_active;
  job.result.detection = uplink_detector_.detect(job.frame.aligned, pool);
  job.result.snr_processed_db = job.result.detection.snr_db;
  const double gain_db =
      10.0 * std::log10(std::max(job.frame.mean_samples(), 1.0)) +
      10.0 * std::log10(static_cast<double>(n));
  job.result.snr_per_chirp_db = job.result.snr_processed_db - gain_db;
  job.result.bits_compared = job.sent_bits.size();
  job.result.range_error_m =
      std::abs(job.result.detection.range_m - tag_return_.range_m);
  if (!job.result.detection.found) job.result.bit_errors = job.sent_bits.size();
}

void LinkSimulator::stage_decode(UplinkFrameJob& job,
                                 obs::ServerStatsCollector* server) {
  obs::StageScope scope(obs::Stage::kDecode, report_, server);
  if (!job.result.detection.found) return;
  const std::size_t block = uplink_decoder_.config().chirps_per_symbol;
  if (job.frame.chirps.size() < block) return;  // frame too short to decode
  uplink_decoder_.decode_into(job.frame.aligned, job.result.detection.grid_bin,
                              job.result.decode);
  for (std::size_t i = 0; i < job.sent_bits.size(); ++i) {
    if (i >= job.result.decode.bits.size() ||
        job.result.decode.bits[i] != job.sent_bits[i])
      ++job.result.bit_errors;
  }
}

void LinkSimulator::fold_uplink_frame(const UplinkFrameJob& job) {
  ++report_.uplink_frames;
  report_.chirps_processed += job.frame.chirps.size();
  ++report_.detection_attempts;
  report_.detector_snr_sum_db += job.result.detection.snr_db;
  report_.last_detector_snr_db = job.result.detection.snr_db;
  if (job.result.detection.found) ++report_.detections;
  report_.uplink_bits += job.sent_bits.size();
  report_.uplink_bit_errors += job.result.bit_errors;
}

const UplinkRunResult& LinkSimulator::run_frame(
    UplinkFrameJob& job, ThreadPool* pool, obs::ServerStatsCollector* server) {
  BIS_TRACE_SPAN("core.uplink_frame");
  job.reset_result();
  stage_synthesize(job, server);
  stage_range_fft(job, pool, server);
  stage_if_correct(job, pool, server);
  stage_detect(job, pool, server);
  stage_decode(job, server);
  fold_uplink_frame(job);
  return job.result;
}

UplinkRunResult LinkSimulator::run_uplink(const phy::Bits& bits, bool downlink_active) {
  prepare_uplink_frame(bits, downlink_active, seq_job_);
  return run_frame(seq_job_, pool_);
}

IsacRunResult LinkSimulator::run_integrated(const phy::Bits& downlink_payload,
                                            const phy::Bits& uplink_bits) {
  BIS_TRACE_SPAN("core.run_integrated");
  ++report_.integrated_frames;
  const phy::DownlinkPacket packet(config_.packet, downlink_payload);
  const auto packet_slots = packet.to_slots(alphabet_);
  const std::size_t preamble =
      config_.packet.header_chirps + config_.packet.sync_chirps;

  const auto& ul = tag_.modulator().config();
  tag_.modulator().queue_bits(uplink_bits);

  // Build the integrated schedule: the preamble occupies every chirp; each
  // payload symbol goes out on the next chirp the tag will absorb (the radar
  // assigned the modulation pattern, so it knows the schedule); reflective
  // chirps repeat the previous slot as sensing filler the tag never sees.
  // The schedule is the sequential uplink job's input.
  std::vector<rf::ChirpParams>& chirps = seq_job_.frame.chirps;
  std::vector<int>& states = seq_job_.tag_states;
  chirps.clear();
  states.clear();
  std::size_t emitted_preamble = 0;
  std::size_t next_symbol = preamble;  // index into packet_slots
  std::size_t last_slot = alphabet_.header_slot();
  bool started = false;
  while (!started || emitted_preamble < preamble ||
         next_symbol < packet_slots.size()) {
    const int state = tag_.modulator().next_states(1).front();
    states.push_back(state);
    std::size_t slot;
    if (!started) {
      // Delay the frame start until a chirp the tag will absorb, so the
      // first header chirp is guaranteed visible (the tag's period-indexed
      // framing anchors on it).
      if (state == 0) {
        started = true;
        slot = packet_slots[emitted_preamble++];
      } else {
        slot = last_slot;  // pre-frame sensing chirp the tag won't see
      }
    } else if (emitted_preamble < preamble) {
      slot = packet_slots[emitted_preamble++];
    } else if (state == 0 && next_symbol < packet_slots.size()) {
      slot = packet_slots[next_symbol++];
    } else {
      slot = last_slot;  // sensing filler on a reflective chirp
    }
    last_slot = slot;
    chirps.push_back(alphabet_.chirp(slot));
    BIS_CHECK_MSG(chirps.size() < 100000, "integrated schedule failed to place payload");
  }
  // The frame ends here: reply bits it had no room for are dropped, not
  // carried into the next frame (they are counted in uplink_bits_dropped).
  tag_.modulator().discard_pending();

  // --- Tag side: decode the downlink from the absorptive chirps. ---
  const auto paths = incident_paths(config_.tag_range_m);
  tag_.frontend().auto_gain(paths);
  std::unique_ptr<bool[]> flags(new bool[chirps.size()]);
  for (std::size_t i = 0; i < chirps.size(); ++i) flags[i] = states[i] == 0;
  dsp::RVec stream;
  {
    obs::StageScope scope(obs::Stage::kTagFrontend, report_);
    stream = tag_.frontend().receive_frame(
        chirps, paths, std::span<const bool>(flags.get(), chirps.size()));
  }
  const std::vector<bool> mask(flags.get(), flags.get() + chirps.size());
  tag::TagNode::DownlinkReception reception;
  {
    obs::StageScope scope(obs::Stage::kTagDecode, report_);
    reception = tag_.receive_downlink(stream, config_.packet, mask);
  }

  IsacRunResult result;
  result.downlink.decode = std::move(reception.decode);
  result.downlink.parsed = std::move(reception.packet);
  result.downlink.locked = result.downlink.decode.locked;
  result.downlink.crc_ok = result.downlink.parsed.crc_ok;
  result.downlink.address_match = result.downlink.parsed.address_match;
  const auto& sent = packet.framed_bits();
  result.downlink.bits_compared = sent.size();
  if (result.downlink.locked) {
    const auto& rx = result.downlink.decode.bits;
    for (std::size_t i = 0; i < sent.size(); ++i)
      if (i >= rx.size() || rx[i] != sent[i]) ++result.downlink.bit_errors;
  } else {
    result.downlink.bit_errors = sent.size();
  }
  record_downlink(result.downlink);

  // --- Radar side: sensing + uplink decoding over the same frame. ---
  const std::size_t block = ul.chirps_per_symbol;
  const std::size_t usable_symbols = chirps.size() / block;
  const std::size_t bps = phy::uplink_bits_per_symbol(ul);
  const std::size_t comparable =
      std::min(uplink_bits.size(), usable_symbols * bps);
  seq_job_.sent_bits.assign(uplink_bits.begin(),
                            uplink_bits.begin() + static_cast<long>(comparable));
  seq_job_.downlink_active = true;
  result.uplink = run_frame(seq_job_, pool_);
  report_.uplink_bits_dropped += uplink_bits.size() - comparable;
  return result;
}

obs::RunReport LinkSimulator::report() const { return report_; }

std::string LinkSimulator::report_json() const { return report_.to_json(); }

void LinkSimulator::reset_report() {
  report_ = obs::RunReport{};
  report_.config = config_key(config_);
}

}  // namespace bis::core

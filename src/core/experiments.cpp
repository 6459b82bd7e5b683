#include "core/experiments.hpp"

#include "common/check.hpp"
#include "common/stats.hpp"

namespace bis::core {

BerMeasurement measure_downlink_ber(const SystemConfig& config, std::size_t min_bits,
                                    std::size_t payload_bits) {
  LinkSimulator sim(config);
  Rng data_rng(config.seed ^ 0xD47Aull);
  return measure_downlink_ber(sim, min_bits, payload_bits, data_rng);
}

BerMeasurement measure_downlink_ber(LinkSimulator& sim, std::size_t min_bits,
                                    std::size_t payload_bits, Rng& data_rng) {
  BIS_CHECK(min_bits >= payload_bits);
  sim.calibrate_tag();

  phy::ErrorCounter counter;
  BerMeasurement m;
  while (counter.total() < min_bits) {
    const auto payload = data_rng.bits(payload_bits);
    const auto result = sim.run_downlink(payload);
    ++m.packets;
    if (result.locked) ++m.packets_locked;
    // bits_compared counts framed bits (payload + overhead) — the raw
    // channel BER the paper reports.
    for (std::size_t i = 0; i < result.bits_compared; ++i)
      counter.add_single(i < result.bit_errors);
  }
  m.errors = counter.errors();
  m.bits = counter.total();
  m.ber = counter.rate();
  m.ber_upper95 = counter.wilson_upper_95();
  m.envelope_snr_db = sim.downlink_envelope_snr_db(sim.config().tag_range_m);
  return m;
}

UplinkMeasurement measure_uplink(const SystemConfig& config, std::size_t frames,
                                 std::size_t bits_per_frame, bool downlink_active) {
  LinkSimulator sim(config);
  Rng data_rng(config.seed ^ 0x1BADull);
  return measure_uplink(sim, frames, bits_per_frame, downlink_active, data_rng);
}

UplinkMeasurement measure_uplink(LinkSimulator& sim, std::size_t frames,
                                 std::size_t bits_per_frame, bool downlink_active,
                                 Rng& data_rng) {
  BIS_CHECK(frames >= 1 && bits_per_frame >= 1);
  sim.calibrate_tag();

  UplinkMeasurement m;
  RunningStats snr_proc;
  RunningStats snr_chirp;
  RunningStats range_err;
  std::size_t detected = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    const auto bits = data_rng.bits(bits_per_frame);
    const auto r = sim.run_uplink(bits, downlink_active);
    m.errors += r.bit_errors;
    m.bits += r.bits_compared;
    snr_proc.add(r.snr_processed_db);
    snr_chirp.add(r.snr_per_chirp_db);
    if (r.detection.found) {
      ++detected;
      range_err.add(r.range_error_m);
    }
  }
  m.ber = m.bits ? static_cast<double>(m.errors) / static_cast<double>(m.bits) : 0.0;
  m.mean_snr_processed_db = snr_proc.mean();
  m.mean_snr_per_chirp_db = snr_chirp.mean();
  m.detection_rate = static_cast<double>(detected) / static_cast<double>(frames);
  m.mean_range_error_m = range_err.count() ? range_err.mean() : 0.0;
  return m;
}

LocalizationMeasurement measure_localization(const SystemConfig& config,
                                             std::size_t frames,
                                             bool downlink_active) {
  LinkSimulator sim(config);
  Rng data_rng(config.seed ^ 0x10Cull);
  return measure_localization(sim, frames, downlink_active, data_rng);
}

LocalizationMeasurement measure_localization(LinkSimulator& sim, std::size_t frames,
                                             bool downlink_active, Rng& data_rng) {
  BIS_CHECK(frames >= 1);
  sim.calibrate_tag();

  std::vector<double> errors;
  std::size_t detected = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    const auto bits = data_rng.bits(4);
    const auto r = sim.run_uplink(bits, downlink_active);
    if (r.detection.found) {
      ++detected;
      errors.push_back(r.range_error_m);
    }
  }
  LocalizationMeasurement m;
  m.frames = frames;
  m.detection_rate = static_cast<double>(detected) / static_cast<double>(frames);
  if (!errors.empty()) {
    m.mean_error_m = bis::mean(errors);
    m.median_error_m = bis::median(errors);
    m.p90_error_m = bis::percentile(errors, 90.0);
  }
  return m;
}

IsacMeasurement measure_integrated(const SystemConfig& config, std::size_t frames,
                                   std::size_t payload_bits, std::size_t uplink_bits) {
  LinkSimulator sim(config);
  Rng data_rng(config.seed ^ 0x15ACull);
  return measure_integrated(sim, frames, payload_bits, uplink_bits, data_rng);
}

IsacMeasurement measure_integrated(LinkSimulator& sim, std::size_t frames,
                                   std::size_t payload_bits, std::size_t uplink_bits,
                                   Rng& data_rng) {
  BIS_CHECK(frames >= 1);
  sim.calibrate_tag();

  IsacMeasurement m;
  phy::ErrorCounter dl_counter;
  RunningStats snr_proc;
  RunningStats snr_chirp;
  RunningStats range_err;
  std::size_t detected = 0;
  for (std::size_t f = 0; f < frames; ++f) {
    const auto payload = data_rng.bits(payload_bits);
    const auto ul_bits = data_rng.bits(uplink_bits);
    const auto r = sim.run_integrated(payload, ul_bits);

    ++m.downlink.packets;
    if (r.downlink.locked) ++m.downlink.packets_locked;
    for (std::size_t i = 0; i < r.downlink.bits_compared; ++i)
      dl_counter.add_single(i < r.downlink.bit_errors);

    m.uplink.errors += r.uplink.bit_errors;
    m.uplink.bits += r.uplink.bits_compared;
    snr_proc.add(r.uplink.snr_processed_db);
    snr_chirp.add(r.uplink.snr_per_chirp_db);
    if (r.uplink.detection.found) {
      ++detected;
      range_err.add(r.uplink.range_error_m);
    }
  }
  m.downlink.bits = dl_counter.total();
  m.downlink.errors = dl_counter.errors();
  m.downlink.ber = dl_counter.rate();
  m.downlink.ber_upper95 = dl_counter.wilson_upper_95();
  m.downlink.envelope_snr_db =
      sim.downlink_envelope_snr_db(sim.config().tag_range_m);
  m.uplink.ber = m.uplink.bits
                     ? static_cast<double>(m.uplink.errors) /
                           static_cast<double>(m.uplink.bits)
                     : 0.0;
  m.uplink.mean_snr_processed_db = snr_proc.mean();
  m.uplink.mean_snr_per_chirp_db = snr_chirp.mean();
  m.uplink.detection_rate = static_cast<double>(detected) / static_cast<double>(frames);
  m.uplink.mean_range_error_m = range_err.count() ? range_err.mean() : 0.0;
  return m;
}

}  // namespace bis::core

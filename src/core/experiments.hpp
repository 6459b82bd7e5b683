#pragma once

/// @file experiments.hpp
/// Monte-Carlo measurement helpers used by the bench harnesses (one per
/// paper figure/table — see DESIGN.md §4). Each comes in two forms:
///   - a config form that builds its own LinkSimulator and derives its data
///     stream from the SystemConfig seed, so runs are reproducible;
///   - a sweep form that drives a caller-built LinkSimulator with the
///     caller's data stream. SweepRunner uses it so the simulator, and with
///     it the run report of everything the point did, stays with the caller.
/// Both forms calibrate the tag before the first frame.

#include <cstddef>

#include "core/link_simulator.hpp"

namespace bis::core {

struct BerMeasurement {
  double ber = 0.0;
  double ber_upper95 = 0.0;   ///< Wilson upper bound (for zero-error points).
  std::size_t bits = 0;
  std::size_t errors = 0;
  std::size_t packets = 0;
  std::size_t packets_locked = 0;
  double envelope_snr_db = 0.0;  ///< Analytic downlink SNR at the tag range.
};

/// Downlink BER over repeated random packets of @p payload_bits each until
/// at least @p min_bits bits have been compared.
BerMeasurement measure_downlink_ber(const SystemConfig& config,
                                    std::size_t min_bits = 2000,
                                    std::size_t payload_bits = 120);

/// Sweep form: runs on @p sim (freshly built; calibrated here) and draws
/// payloads from @p data_rng (a jump-separated stream under SweepRunner).
/// The config form above is this call on `LinkSimulator(config)` with
/// data_rng seeded from config.seed.
BerMeasurement measure_downlink_ber(LinkSimulator& sim, std::size_t min_bits,
                                    std::size_t payload_bits, Rng& data_rng);

struct UplinkMeasurement {
  double ber = 0.0;
  std::size_t bits = 0;
  std::size_t errors = 0;
  double mean_snr_processed_db = 0.0;
  double mean_snr_per_chirp_db = 0.0;
  double detection_rate = 0.0;
  double mean_range_error_m = 0.0;
};

/// Uplink BER / SNR / localization over repeated frames.
UplinkMeasurement measure_uplink(const SystemConfig& config,
                                 std::size_t frames = 10,
                                 std::size_t bits_per_frame = 8,
                                 bool downlink_active = false);

/// Sweep form (see measure_downlink_ber).
UplinkMeasurement measure_uplink(LinkSimulator& sim, std::size_t frames,
                                 std::size_t bits_per_frame, bool downlink_active,
                                 Rng& data_rng);

struct LocalizationMeasurement {
  double mean_error_m = 0.0;
  double median_error_m = 0.0;
  double p90_error_m = 0.0;
  double detection_rate = 0.0;
  std::size_t frames = 0;
};

/// Tag localization accuracy with or without concurrent CSSK downlink
/// (Fig. 16's two conditions).
LocalizationMeasurement measure_localization(const SystemConfig& config,
                                             std::size_t frames = 20,
                                             bool downlink_active = false);

/// Sweep form (see measure_downlink_ber).
LocalizationMeasurement measure_localization(LinkSimulator& sim, std::size_t frames,
                                             bool downlink_active, Rng& data_rng);

struct IsacMeasurement {
  BerMeasurement downlink;
  UplinkMeasurement uplink;
};

/// Fully integrated frames: downlink packet + uplink bits + localization.
IsacMeasurement measure_integrated(const SystemConfig& config,
                                   std::size_t frames = 10,
                                   std::size_t payload_bits = 80,
                                   std::size_t uplink_bits = 4);

/// Sweep form (see measure_downlink_ber).
IsacMeasurement measure_integrated(LinkSimulator& sim, std::size_t frames,
                                   std::size_t payload_bits, std::size_t uplink_bits,
                                   Rng& data_rng);

}  // namespace bis::core

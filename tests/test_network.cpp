// Multi-tag network (paper §6 "Extension to Multi-Radar Multi-Tag
// Scenarios"): addressed/broadcast downlink and simultaneous multi-tag
// sensing with per-tag modulation frequencies.

#include <gtest/gtest.h>

#include <cmath>

#include "common/json.hpp"
#include "core/network.hpp"
#include "dsp/fft.hpp"

namespace bis::core {
namespace {

NetworkConfig three_tag_network() {
  NetworkConfig net;
  net.base.seed = 77;
  const auto freqs = assign_mod_frequencies(3, net.base.radar.chirp_period_s);
  net.tags = {
      {0x01, 1.8, freqs[0]},
      {0x02, 3.6, freqs[1]},
      {0x03, 5.4, freqs[2]},
  };
  return net;
}

TEST(Network, AssignedFrequenciesSeparatedAndBelowNyquist) {
  const double period = 120e-6;
  const auto freqs = assign_mod_frequencies(5, period);
  ASSERT_EQ(freqs.size(), 5u);
  const double nyquist = 1.0 / (2.0 * period);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_GT(freqs[i], 0.1 * nyquist);
    EXPECT_LT(freqs[i], 0.9 * nyquist);
    if (i) {
      EXPECT_GT(freqs[i] - freqs[i - 1], 0.05 * nyquist);
    }
  }
}

TEST(Network, BroadcastReachesEveryTag) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const phy::Bits payload = {1, 0, 1, 1, 0, 1, 0, 0};
  const auto deliveries = net.send_downlink(phy::kBroadcastAddress, payload);
  ASSERT_EQ(deliveries.size(), 3u);
  for (const auto& d : deliveries) {
    EXPECT_TRUE(d.locked) << int(d.address);
    EXPECT_TRUE(d.crc_ok) << int(d.address);
    EXPECT_TRUE(d.address_match) << int(d.address);
    EXPECT_EQ(d.payload, payload) << int(d.address);
  }
}

TEST(Network, UnicastFiltersOtherTags) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const phy::Bits payload = {0, 1, 1, 0};
  const auto deliveries = net.send_downlink(0x02, payload);
  ASSERT_EQ(deliveries.size(), 3u);
  for (const auto& d : deliveries) {
    EXPECT_TRUE(d.crc_ok) << int(d.address);  // all decode the broadcast frame
    if (d.address == 0x02) {
      EXPECT_TRUE(d.address_match);
      EXPECT_EQ(d.payload, payload);
    } else {
      EXPECT_FALSE(d.address_match);
    }
  }
}

TEST(Network, SensesAllTagsSimultaneously) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const auto obs = net.sense_all(/*downlink_active=*/false);
  ASSERT_EQ(obs.size(), 3u);
  const double true_ranges[3] = {1.8, 3.6, 5.4};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(obs[i].detected) << i;
    EXPECT_LT(obs[i].range_error_m, 0.08) << i;
    EXPECT_NEAR(obs[i].range_m, true_ranges[i], 0.1) << i;
  }
}

// Network frames take the precision branch: on the same scene, float32_fast
// makes the same detection decisions as double_strict and places every tag
// within one range-grid bin of it.
TEST(Network, Float32FastMatchesDoubleStrictWithinOneBin) {
  const NetworkConfig strict = three_tag_network();
  NetworkConfig fast = strict;
  fast.base.precision = dsp::Precision::kFloat32Fast;
  BiScatterNetwork strict_net(strict);
  BiScatterNetwork fast_net(fast);

  // Grid spacing of the fixed sensing chirp's frame: R_max over the
  // zero-padded FFT length's grid points.
  const auto alphabet = strict.base.make_alphabet();
  const rf::ChirpParams chirp = alphabet.chirp(fixed_sensing_slot(alphabet));
  const double fs = strict.base.radar.if_synth.sample_rate_hz;
  const auto samples = static_cast<std::size_t>(std::floor(chirp.duration_s * fs));
  const double bin_m = chirp.max_unambiguous_range(fs) /
                       static_cast<double>(2 * dsp::next_power_of_two(samples) - 1);

  const auto want = strict_net.sense_all(/*downlink_active=*/false);
  const auto got = fast_net.sense_all(/*downlink_active=*/false);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].detected, want[i].detected) << i;
    EXPECT_NEAR(got[i].range_m, want[i].range_m, bin_m) << i;
  }
}

TEST(Network, SensingSurvivesConcurrentDownlink) {
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const auto obs = net.sense_all(/*downlink_active=*/true);
  std::size_t detected = 0;
  for (const auto& o : obs)
    if (o.detected && o.range_error_m < 0.1) ++detected;
  EXPECT_GE(detected, 2u);
}

TEST(Network, ConsecutiveSensingFramesDrawFreshNoise) {
  // Each sensing frame is a new frame: its noise (and CSSK schedule) must
  // not replay the previous one's.
  BiScatterNetwork net(three_tag_network());
  net.calibrate_all();
  const auto first = net.sense_all(/*downlink_active=*/true);
  const auto second = net.sense_all(/*downlink_active=*/true);
  ASSERT_EQ(first.size(), second.size());
  bool any_differs = false;
  for (std::size_t i = 0; i < first.size(); ++i)
    any_differs = any_differs || first[i].snr_db != second[i].snr_db;
  EXPECT_TRUE(any_differs);
  EXPECT_EQ(net.report().uplink_frames, 2u);
}

TEST(Network, MeanDetectorSnrIncludesMissedAttempts) {
  // A tag far past the link budget: its one detection attempt misses. The
  // report's mean SNR is over attempts, so it must read that attempt's SNR,
  // not 0 dB — on the network report and on the tag's own link report.
  NetworkConfig cfg;
  cfg.base.seed = 77;
  cfg.tags = {{0x01, 400.0,
               assign_mod_frequencies(1, cfg.base.radar.chirp_period_s)[0]}};
  BiScatterNetwork net(cfg);
  const auto obs = net.sense_all(/*downlink_active=*/false);
  ASSERT_EQ(obs.size(), 1u);
  ASSERT_FALSE(obs[0].detected);
  ASSERT_NE(obs[0].snr_db, 0.0);
  const obs::RunReport report = net.report();
  EXPECT_EQ(report.detection_attempts, 1u);
  EXPECT_EQ(report.detections, 0u);
  EXPECT_EQ(report.mean_detector_snr_db(), obs[0].snr_db);
  EXPECT_EQ(report.last_detector_snr_db, obs[0].snr_db);
  // The tag's own link report, as report_json publishes it.
  const auto doc = json_parse(net.report_json());
  ASSERT_TRUE(doc.ok()) << doc.error;
  const JsonValue* links = doc.value.find("links");
  ASSERT_TRUE(links != nullptr && links->is_array());
  ASSERT_EQ(links->as_array().size(), 1u);
  const JsonValue* uplink = links->as_array()[0].find("uplink");
  ASSERT_NE(uplink, nullptr);
  // (The JSON writer rounds to a few decimals.)
  EXPECT_NEAR(uplink->number_or("mean_detector_snr_db", 0.0), obs[0].snr_db,
              1e-4);
}

}  // namespace
}  // namespace bis::core

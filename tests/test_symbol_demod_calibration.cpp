// Symbol classification (Goertzel/GLRT bank) and the one-time calibration
// procedure (paper §3.2.1, §5).

#include <gtest/gtest.h>

#include <cmath>

#include "common/constants.hpp"
#include "common/random.hpp"
#include "phy/slope_alphabet.hpp"
#include "tag/calibration.hpp"
#include "tag/symbol_demod.hpp"
#include "tag/tag_frontend.hpp"

namespace bis::tag {
namespace {

constexpr double kFs = 500e3;

phy::SlopeAlphabet make_alphabet(std::size_t bits = 5) {
  phy::SlopeAlphabetConfig c;
  c.bandwidth_hz = 1e9;
  c.start_frequency_hz = 9e9;
  c.chirp_period_s = 120e-6;
  c.min_chirp_duration_s = 36e-6;
  c.bits_per_symbol = bits;
  c.delay_line.length_diff_m = 45.0 * 0.0254;
  return phy::SlopeAlphabet::design(c);
}

TagFrontendConfig frontend_config() {
  TagFrontendConfig cfg;
  cfg.delay_line.length_diff_m = 45.0 * 0.0254;
  cfg.envelope.conversion_gain = 1900.0;
  cfg.envelope.output_noise_density = 1e-10;
  cfg.adc.sample_rate_hz = kFs;
  cfg.adc.full_scale = 1.65;
  return cfg;
}

PeriodicGateConfig gate_config(const phy::SlopeAlphabet& a) {
  PeriodicGateConfig g;
  g.sample_rate_hz = kFs;
  g.min_burst_s = 0.5 * a.duration(a.header_slot());
  return g;
}

TEST(SymbolDemod, ClassifiesSyntheticTones) {
  std::vector<double> freqs = {20e3, 40e3, 60e3, 80e3};
  SymbolDemodConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.slot_beat_freqs_hz = freqs;
  SymbolDemod demod(cfg);
  Rng rng(1);
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    std::vector<double> window(48);
    for (std::size_t n = 0; n < window.size(); ++n) {
      window[n] = 0.5 + std::cos(kTwoPi * freqs[i] * static_cast<double>(n) / kFs) +
                  rng.gaussian(0.0, 0.05);
    }
    const auto r = demod.classify(window);
    EXPECT_EQ(r.slot, i);
    EXPECT_GT(r.confidence, 1.0);
  }
}

TEST(SymbolDemod, AnalysisLengthGuards) {
  EXPECT_EQ(SymbolDemod::analysis_length(96e-6, kFs), 46u);  // 48 − 2
  EXPECT_EQ(SymbolDemod::analysis_length(1e-6, kFs), 4u);    // floor
}

TEST(Calibration, NominalTableMatchesAlphabet) {
  const auto a = make_alphabet();
  const auto t = CalibrationTable::nominal(a);
  EXPECT_FALSE(t.calibrated);
  EXPECT_EQ(t.slot_beat_freqs_hz, a.nominal_beat_frequencies());
}

TEST(Calibration, MeasuresDispersionShift) {
  // With dielectric dispersion the actual Δf differs from nominal; the
  // calibrated table must land near the physical value, not the nominal.
  const auto a = make_alphabet();
  auto fc = frontend_config();
  fc.delay_line.dispersion_per_ghz = 0.01;  // exaggerated for visibility
  TagFrontend fe(fc, Rng(2));
  const auto table =
      run_calibration(fe, a, 1e-4, CalibrationConfig{}, gate_config(a));
  ASSERT_TRUE(table.calibrated);

  const rf::DelayLinePair line(fc.delay_line);
  for (std::size_t s : {a.sync_slot(), a.slot_for_data(7)}) {
    const auto chirp = a.chirp(s);
    const double physical = chirp.slope() * line.delta_t(chirp.center_frequency_hz());
    const double nominal = a.nominal_beat_frequency(s);
    EXPECT_GT(std::abs(nominal - physical), 250.0) << "dispersion too small to test";
    // Calibrated value is closer to physical than nominal is (the estimator
    // has its own window bias, so exact equality is not expected).
    EXPECT_LT(std::abs(table.slot_beat_freqs_hz[s] - physical),
              std::abs(nominal - physical))
        << s;
  }
}

TEST(Calibration, TableMostlyMonotone) {
  const auto a = make_alphabet();
  TagFrontend fe(frontend_config(), Rng(3));
  const auto table =
      run_calibration(fe, a, 1e-4, CalibrationConfig{}, gate_config(a));
  std::size_t inversions = 0;
  for (std::size_t s = 1; s < table.slot_beat_freqs_hz.size(); ++s)
    if (table.slot_beat_freqs_hz[s] < table.slot_beat_freqs_hz[s - 1]) ++inversions;
  EXPECT_LE(inversions, 3u);
}

TEST(Calibration, PhasesRecorded) {
  const auto a = make_alphabet(3);
  TagFrontend fe(frontend_config(), Rng(4));
  const auto table =
      run_calibration(fe, a, 1e-4, CalibrationConfig{}, gate_config(a));
  ASSERT_EQ(table.slot_phases_rad.size(), a.slot_count());
  for (double p : table.slot_phases_rad) {
    EXPECT_GE(p, -kPi - 1e-9);
    EXPECT_LE(p, kPi + 1e-9);
  }
}

TEST(Calibration, ClassificationUsesCalibratedTable) {
  // End-to-end: calibrate, then classify fresh chirps of every data slot.
  const auto a = make_alphabet(4);
  TagFrontend fe(frontend_config(), Rng(5));
  const std::vector<IncidentPath> paths = {{1e-4, 0.0, 0.0}};
  const auto table =
      run_calibration(fe, a, 1e-4, CalibrationConfig{}, gate_config(a));

  SymbolDemodConfig dc;
  dc.sample_rate_hz = kFs;
  dc.slot_beat_freqs_hz = table.slot_beat_freqs_hz;
  SymbolDemod demod(dc);

  fe.auto_gain(paths);
  std::size_t correct = 0;
  const std::size_t trials = a.slot_count();
  for (std::size_t s = 0; s < trials; ++s) {
    const auto chirp = a.chirp(s);
    const auto samples = fe.receive_chirp_period(chirp, paths, true);
    const auto len = SymbolDemod::analysis_length(chirp.duration_s, kFs);
    const auto r =
        demod.classify(std::span<const double>(samples.data(), len));
    if (r.slot == s) ++correct;
  }
  // High SNR: expect near-perfect classification.
  EXPECT_GE(correct, trials - 1);
}

// The duration-matched classify_matched variant, a documented alternative
// to the default period-indexed classifier.

TEST(ClassifyMatched, SelectsSlotByDurationAndFrequency) {
  // Three slots whose duration and frequency are linked (the CSSK
  // invariant: Δf·T constant).
  SymbolDemodConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.slot_beat_freqs_hz = {30e3, 60e3, 120e3};
  cfg.slot_durations_s = {160e-6, 80e-6, 40e-6};
  SymbolDemod demod(cfg);

  Rng rng(3);
  for (std::size_t slot = 0; slot < 3; ++slot) {
    const auto n_active =
        static_cast<std::size_t>(cfg.slot_durations_s[slot] * kFs);
    dsp::RVec period(100, 0.0);  // active part then idle
    for (std::size_t i = 0; i < n_active && i < period.size(); ++i) {
      const double t = static_cast<double>(i) / kFs;
      period[i] = 0.5 + 0.5 * std::cos(kTwoPi * cfg.slot_beat_freqs_hz[slot] * t);
    }
    for (auto& v : period) v += rng.gaussian(0.0, 0.01);
    const auto r = demod.classify_matched(period);
    EXPECT_EQ(r.slot, slot) << slot;
  }
}

TEST(ClassifyMatched, RequiresDurations) {
  SymbolDemodConfig cfg;
  cfg.sample_rate_hz = kFs;
  cfg.slot_beat_freqs_hz = {30e3, 60e3};
  SymbolDemod demod(cfg);
  dsp::RVec x(50, 0.1);
  EXPECT_THROW(demod.classify_matched(x), std::invalid_argument);
}

}  // namespace
}  // namespace bis::tag

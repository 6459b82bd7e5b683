#include "core/radar_front_end.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/scene.hpp"

namespace bis::core {
namespace {

/// The calling thread's scene scratch: the clutter prefix plus a window's
/// tags. Per thread rather than per window or frame, so it is allocated
/// once per lane — per-window scratch regrowing on worker threads pins
/// fragments in their malloc arenas (measured: +2 MB peak RSS on a
/// 3000-tag, 4-lane inventory drain).
std::vector<radar::IfReturn>& scene_scratch() {
  thread_local std::vector<radar::IfReturn> scene;
  return scene;
}

}  // namespace

std::size_t fixed_sensing_slot(const phy::SlopeAlphabet& alphabet) {
  return alphabet.slot_for_data(alphabet.data_symbol_count() / 2);
}

double tag_backscatter_amplitude(const SystemConfig& base, double range_m) {
  const double f_c =
      base.radar.start_frequency_hz + base.radar.bandwidth_hz / 2.0;
  return std::sqrt(dbm_to_watts(rf::uplink_power_at_radar_dbm(
      base.radar.rf, base.tag.rf, range_m, f_c)));
}

std::vector<radar::IfReturn> clutter_returns(const SystemConfig& base) {
  const double f_c =
      base.radar.start_frequency_hz + base.radar.bandwidth_hz / 2.0;
  std::vector<radar::IfReturn> out;
  for (const auto& spec : radar::Scene::office_clutter_layout()) {
    const double p_dbm = rf::clutter_return_dbm(base.radar.rf, spec.range_m,
                                                f_c, spec.rcs_offset_db);
    out.push_back({spec.range_m, std::sqrt(dbm_to_watts(p_dbm)), spec.phase_rad});
  }
  return out;
}

double RadarFrame::mean_samples() const {
  double sum = 0.0;
  for (const auto& s : if_samples) sum += static_cast<double>(s.size());
  for (const auto& s : if_samples_f32) sum += static_cast<double>(s.size());
  return sum / static_cast<double>(chirps.size());
}

RadarFrontEnd::RadarFrontEnd(const SystemConfig& config)
    : if_synth_(config.radar.if_synth),
      chirp_period_s_(config.radar.chirp_period_s),
      precision_(config.precision),
      background_subtraction_(config.use_background_subtraction),
      clutter_(clutter_returns(config)),
      reflect_(db_to_amplitude(
          -config.tag.node.frontend.rf_switch.insertion_loss_db)),
      leak_(db_to_amplitude(-config.tag.node.frontend.rf_switch.isolation_db)),
      processor_(radar::RangeProcessorConfig{}),
      aligner_(config.if_correction) {
  BIS_CHECK(chirp_period_s_ > 0.0);
}

void RadarFrontEnd::reserve(RadarFrame& frame, std::size_t n_chirps,
                            const rf::ChirpParams& longest) const {
  const auto samples = static_cast<std::size_t>(
      std::floor(longest.duration_s * if_synth_.sample_rate_hz));
  const std::size_t bins =
      dsp::next_power_of_two(samples) * processor_.config().zero_pad_factor;
  if (precision_ == dsp::Precision::kFloat32Fast) {
    frame.if_samples_f32.resize(n_chirps);
    for (auto& s : frame.if_samples_f32) s.reserve(samples);
  } else {
    frame.if_samples.resize(n_chirps);
    for (auto& s : frame.if_samples) s.reserve(samples);
  }
  frame.profiles.resize(n_chirps);
  for (auto& p : frame.profiles) p.bins.reserve(bins);
}

void RadarFrontEnd::synthesize_window(RadarFrame& frame,
                                      const SensingWindow& window) const {
  BIS_CHECK(window.states.empty() || window.states.size() == window.count);
  // The scene is the clutter prefix plus one point return per tag; only the
  // tag amplitudes change chirp to chirp (the backscatter switching). A
  // zero amplitude synthesizes nothing, so an absorbing tag with no leakage
  // is the same as no tag.
  std::vector<radar::IfReturn>& scene = scene_scratch();
  scene.assign(clutter_.begin(), clutter_.end());
  const std::size_t base_n = scene.size();
  for (const TagReturn& tag : window.tags)
    scene.push_back({tag.range_m, 0.0, tag.phase_rad});

  radar::IfSynthesizer synth(if_synth_, window.rng);
  const bool f32 = precision_ == dsp::Precision::kFloat32Fast;
  for (std::size_t c = 0; c < window.count; ++c) {
    const double t = static_cast<double>(c) * chirp_period_s_;
    for (std::size_t i = 0; i < window.tags.size(); ++i) {
      const TagReturn& tag = window.tags[i];
      bool on;
      if (window.states.empty()) {
        const double x = t * tag.mod_freq_hz + tag.duty_phase;
        on = (x - std::floor(x)) < 0.5;
      } else {
        on = window.states[c] != 0;
      }
      scene[base_n + i].amplitude_v = tag.amplitude_v * (on ? reflect_ : leak_);
    }
    const std::size_t row = window.first + c;
    if (f32)
      synth.synthesize_into_f32(frame.chirps[row], scene, frame.if_samples_f32[row]);
    else
      synth.synthesize_into(frame.chirps[row], scene, frame.if_samples[row]);
  }
}

void RadarFrontEnd::synthesize(RadarFrame& frame,
                               std::span<const SensingWindow> windows,
                               ThreadPool* pool, obs::RunReport& report,
                               obs::ServerStatsCollector* server) const {
  obs::StageScope scope(obs::Stage::kSynthesize, report, server);
  const std::size_t n = frame.chirps.size();
  BIS_CHECK(n >= 1);
  for (const SensingWindow& w : windows) BIS_CHECK(w.first + w.count <= n);
  const bool f32 = precision_ == dsp::Precision::kFloat32Fast;
  frame.if_samples.resize(f32 ? 0 : n);
  frame.if_samples_f32.resize(f32 ? n : 0);
  // Within a window synthesis is sequential: the synthesizer draws noise
  // from one stream whose consumption order must not depend on thread
  // count. Windows own disjoint rows and streams, so they fan out (a lone
  // window stays on the calling thread).
  bis::parallel_for(windows.size() > 1 ? pool : nullptr, 0, windows.size(),
                    [&](std::size_t w) {
    synthesize_window(frame, windows[w]);
  });
}

void RadarFrontEnd::range_fft(RadarFrame& frame, ThreadPool* pool,
                              obs::RunReport& report,
                              obs::ServerStatsCollector* server) const {
  obs::StageScope scope(obs::Stage::kRangeFft, report, server);
  if (precision_ == dsp::Precision::kFloat32Fast) {
    processor_.process_frame_into_f32(frame.if_samples_f32, frame.chirps,
                                      if_synth_.sample_rate_hz, pool,
                                      frame.profiles);
    return;
  }
  processor_.process_frame_into(frame.if_samples, frame.chirps,
                                if_synth_.sample_rate_hz, pool, frame.profiles);
}

void RadarFrontEnd::if_correct(RadarFrame& frame, std::size_t window_chirps,
                               ThreadPool* pool, obs::RunReport& report,
                               obs::ServerStatsCollector* server) const {
  obs::StageScope scope(obs::Stage::kIfCorrect, report, server);
  aligner_.align_into(frame.profiles, pool, frame.aligned);
  if (!background_subtraction_) return;
  const std::size_t n = frame.aligned.n_chirps();
  BIS_CHECK(window_chirps >= 1 && n % window_chirps == 0);
  // Each window subtracts its own first chirp and touches only its own
  // rows, so windows fan across the pool.
  const std::size_t n_windows = n / window_chirps;
  bis::parallel_for(n_windows > 1 ? pool : nullptr, 0, n_windows,
                    [&](std::size_t w) {
    radar::subtract_background(frame.aligned, w * window_chirps, window_chirps, 0);
  });
}

const radar::AlignedProfiles& RadarFrontEnd::run(
    RadarFrame& frame, std::span<const SensingWindow> windows, ThreadPool* pool,
    obs::RunReport& report) const {
  BIS_CHECK(!windows.empty());
  synthesize(frame, windows, pool, report);
  range_fft(frame, pool, report);
  if_correct(frame, windows.front().count, pool, report);
  return frame.aligned;
}

void RadarFrontEnd::warm_caches(const phy::SlopeAlphabet& alphabet) const {
  scene_scratch().reserve(clutter_.size() + 1);
  const double fs = if_synth_.sample_rate_hz;
  dsp::CVec silence;
  dsp::CVecF silence_f32;
  radar::RangeProfile profile;
  radar::AlignedProfiles aligned;
  for (std::size_t slot = 0; slot < alphabet.slot_count(); ++slot) {
    const rf::ChirpParams chirp = alphabet.chirp(slot);
    const auto n = static_cast<std::size_t>(std::floor(chirp.duration_s * fs));
    if (n == 0) continue;
    // A dry range FFT builds this chirp length's window and FFT plan in the
    // shared caches and sizes the calling thread's scratch; aligning the
    // resulting (empty) profile builds the slot's regrid plan against the
    // pinned grid — the exact (axis, grid) key frames will look up, since
    // the axis depends only on the chirp metadata, never the samples.
    silence.assign(n, dsp::cdouble(0.0, 0.0));
    processor_.process_into(silence, chirp, fs, profile);
    if (precision_ == dsp::Precision::kFloat32Fast) {
      silence_f32.assign(n, dsp::cfloat(0.0f, 0.0f));
      processor_.process_into_f32(silence_f32, chirp, fs, profile);
    }
    if (aligner_.config().enabled)
      aligner_.align_into(std::span<const radar::RangeProfile>(&profile, 1),
                          nullptr, aligned);
  }
}

}  // namespace bis::core

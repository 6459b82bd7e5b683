#include "radar/tag_detector.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/matched_filter.hpp"
#include "dsp/peak.hpp"
#include "dsp/window.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis::radar {

TagDetector::TagDetector(const TagDetectorConfig& config) : config_(config) {
  BIS_CHECK(config_.expected_mod_freq_hz > 0.0);
  BIS_CHECK(config_.duty_cycle > 0.0 && config_.duty_cycle < 1.0);
  BIS_CHECK(config_.slow_time_pad_factor >= 1 &&
            dsp::is_power_of_two(config_.slow_time_pad_factor));
  for (double f : config_.candidate_mod_freqs_hz) BIS_CHECK(f > 0.0);
  self_target_ = TagTarget{config_.expected_mod_freq_hz,
                           config_.candidate_mod_freqs_hz};
}

namespace {

/// Per-thread memo for square-wave signatures. A detector evaluates the same
/// handful of (frequency, block length) pairs on every block of every frame,
/// so after warmup the lookup is a map hit with a stable address — the
/// streaming engine's per-frame loop stays allocation-free. Keyed on every
/// input of square_wave_signature; entry count is bounded by the distinct
/// (config, block size) pairs a thread ever sees (a handful per link set).
const dsp::RVec& cached_signature(double f, double duty, std::size_t count,
                                  double period, std::size_t n_fft,
                                  std::size_t harmonics) {
  using Key =
      std::tuple<double, double, double, std::size_t, std::size_t, std::size_t>;
  thread_local std::map<Key, dsp::RVec> cache;
  const Key key{f, duty, period, count, n_fft, harmonics};
  auto it = cache.find(key);
  if (it == cache.end())
    it = cache
             .emplace(key, dsp::square_wave_signature(f, duty, count, period,
                                                      n_fft, harmonics))
             .first;
  return it->second;
}

/// Entry-major sparse signature bank over the flattened (target, candidate)
/// scoring rows of one slow-time block shape — the operand of
/// kernels::ktagscore. Cached per thread and rebuilt only when the rows or
/// the block shape change (a network re-scores the same bank every frame, so
/// steady-state detection never rebuilds), keeping detect_many allocation-
/// free once warm. Entries within a row are stored in ascending spectrum-bin
/// order so the kernel's per-row accumulation reproduces signature_score's
/// one-pass loop bit-for-bit; rows shorter than the widest row are padded
/// with (idx 0, weight 0), which contributes exactly +0.0 (all operands of
/// the sums are non-negative, so no −0.0 can arise and adding +0.0 preserves
/// the bits).
struct ScoreBank {
  // Cache key: block shape + the per-row frequencies.
  std::size_t count = 0;
  std::size_t n_fft = 0;
  std::size_t harmonics = 0;
  double period = 0.0;
  double duty = 0.0;
  std::vector<double> freqs;

  std::size_t entries = 0;            ///< Padded entries per row.
  std::vector<std::uint32_t> idx;     ///< [k·rows + r]: spectrum bin.
  dsp::RVec w;                        ///< [k·rows + r]: signature weight.
  dsp::RVec g;                        ///< [k·rows + r]: 1.0 on support.
  dsp::RVec on_w;                     ///< Per row Σ signature (ascending).
  std::vector<std::size_t> off_n;     ///< Per row: non-DC bins off support.
  std::vector<std::size_t> mod_bin;   ///< Per row: fundamental's FFT bin.
};

ScoreBank& cached_bank(std::span<const double> freqs, double duty,
                       std::size_t count, double period, std::size_t n_fft,
                       std::size_t harmonics) {
  thread_local ScoreBank bank;
  if (bank.count == count && bank.n_fft == n_fft &&
      bank.harmonics == harmonics && bank.period == period &&
      bank.duty == duty && bank.freqs.size() == freqs.size() &&
      std::equal(bank.freqs.begin(), bank.freqs.end(), freqs.begin()))
    return bank;

  bank.count = count;
  bank.n_fft = n_fft;
  bank.harmonics = harmonics;
  bank.period = period;
  bank.duty = duty;
  bank.freqs.assign(freqs.begin(), freqs.end());

  const std::size_t rows = freqs.size();
  const std::size_t spec_size = n_fft / 2 + 1;
  const double bin_hz = (1.0 / period) / static_cast<double>(n_fft);

  std::vector<const dsp::RVec*> sigs(rows);
  std::vector<std::vector<std::uint32_t>> row_idx(rows);
  bank.on_w.assign(rows, 0.0);
  bank.off_n.assign(rows, 0);
  bank.mod_bin.resize(rows);
  bank.entries = 0;
  for (std::size_t r = 0; r < rows; ++r) {
    sigs[r] = &cached_signature(freqs[r], duty, count, period, n_fft, harmonics);
    const dsp::RVec& sig = *sigs[r];
    for (std::size_t i = 1; i < spec_size; ++i) {  // skip DC
      if (sig[i] > 0.0) {
        row_idx[r].push_back(static_cast<std::uint32_t>(i));
        bank.on_w[r] += sig[i];
      }
    }
    bank.off_n[r] = (spec_size - 1) - row_idx[r].size();
    bank.mod_bin[r] =
        static_cast<std::size_t>(std::llround(freqs[r] / bin_hz));
    bank.entries = std::max(bank.entries, row_idx[r].size());
  }

  bank.idx.assign(bank.entries * rows, 0);
  bank.w.assign(bank.entries * rows, 0.0);
  bank.g.assign(bank.entries * rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const dsp::RVec& sig = *sigs[r];
    for (std::size_t k = 0; k < row_idx[r].size(); ++k) {
      const std::size_t e = k * rows + r;
      bank.idx[e] = row_idx[r][k];
      bank.w[e] = sig[row_idx[r][k]];
      bank.g[e] = 1.0;
    }
  }
  return bank;
}

/// Range bins per strip: the lane count of one batched slow-time transform.
/// Four AVX2 blocks per butterfly row; a 128-point strip's working set
/// (samples, packed spectra, split output) stays within L1/L2.
constexpr std::size_t kStripBins = 16;

/// What a strip of one window needs besides its bins, looked up once per
/// window shape: the Hann window and the cached rfft plan. Real = float is
/// the float32_fast tier.
template <typename Real>
struct StripPlan {
  std::size_t count = 0;  ///< Chirps in the window.
  std::shared_ptr<const std::vector<Real, dsp::AlignedAlloc<Real>>> hann;
  dsp::RfftPlanHandle<Real> rfft;
};

template <typename Real>
StripPlan<Real> make_strip_plan(std::size_t count, std::size_t pad_factor) {
  const std::size_t n_fft = dsp::next_power_of_two(count) * pad_factor;
  if constexpr (std::is_same_v<Real, float>)
    return {count, dsp::cached_window_f32(dsp::WindowType::kHann, count),
            dsp::rfft_plan_f32(n_fft)};
  else
    return {count, dsp::cached_window(dsp::WindowType::kHann, count),
            dsp::rfft_plan(n_fft)};
}

/// One plan per window, in per-thread scratch (the caller pins the data
/// pointer for its workers). Consecutive windows of one length — every block
/// of detect_many, every slot of an inventory batch — share one lookup.
template <typename Real>
const StripPlan<Real>* strip_plans(std::span<const SlotSpan> windows,
                                   std::size_t pad_factor) {
  thread_local std::vector<StripPlan<Real>> plans;
  plans.clear();
  for (const SlotSpan& w : windows) {
    if (!plans.empty() && plans.back().count == w.n_chirps)
      plans.push_back(plans.back());
    else
      plans.push_back(make_strip_plan<Real>(w.n_chirps, pad_factor));
  }
  return plans.data();
}

/// Slow-time power spectra of a strip of grid bins over chirps
/// [first, first+plan.count): power[k·L + j] is bin k of bins[j]'s
/// one-sided spectrum (L = bins.size(), k ≤ n_fft/2), in per-thread scratch.
/// The scored bins are a suffix of the ascending grid, so a strip is one
/// contiguous run of each chirp row: the corner turn takes |·| of that run
/// with kcabs (std::abs's bits) straight into the strip's row. |·|, mean
/// removal and Hann are per lane the one-bin chain's operations in its
/// order, and rfft_padded_strip/knorm are bit-identical per lane to
/// rfft_padded_into/knorm, so in double_strict bin j's spectrum is exactly
/// what a one-bin transform of its column gives. float32_fast runs the same
/// chain in float (|·| as sqrt of the double knorm cast to float).
template <typename Real>
std::span<const Real> strip_power(const AlignedProfiles& profiles,
                                  std::span<const std::uint32_t> bins,
                                  std::size_t first,
                                  const StripPlan<Real>& plan) {
  using Vec = std::vector<Real, dsp::AlignedAlloc<Real>>;
  const std::size_t lanes = bins.size();
  const std::size_t count = plan.count;
  BIS_CHECK(first + count <= profiles.n_chirps());
  BIS_CHECK(lanes > 0 && bins.back() - bins.front() + 1 == lanes);
  thread_local Vec x, mean, re, im;
  x.resize(count * lanes);
  mean.assign(lanes, Real(0));
  for (std::size_t m = 0; m < count; ++m) {
    const std::span<const dsp::cdouble> run(
        profiles.rows[first + m].data() + bins.front(), lanes);
    Real* xm = x.data() + m * lanes;
    if constexpr (std::is_same_v<Real, float>) {
      thread_local dsp::RVec norm;
      norm.resize(lanes);
      dsp::kernels::knorm(run, norm);
      for (std::size_t j = 0; j < lanes; ++j)
        xm[j] = std::sqrt(static_cast<float>(norm[j]));
    } else {
      dsp::kernels::kcabs(run, std::span<double>(xm, lanes));
    }
    for (std::size_t j = 0; j < lanes; ++j) mean[j] += xm[j];
  }
  // Static clutter residue is DC in slow time; remove the mean before the
  // FFT so the modulation tone dominates.
  for (std::size_t j = 0; j < lanes; ++j) mean[j] /= static_cast<Real>(count);
  const Real* w = plan.hann->data();
  for (std::size_t m = 0; m < count; ++m) {
    Real* xm = x.data() + m * lanes;
    for (std::size_t j = 0; j < lanes; ++j) xm[j] = (xm[j] - mean[j]) * w[m];
  }
  const std::size_t n_spec = (plan.rfft.n / 2 + 1) * lanes;
  re.resize(n_spec);
  im.resize(n_spec);
  dsp::rfft_padded_strip(std::span<const Real>(x), lanes, plan.rfft, re, im);
  dsp::kernels::knorm(std::span<const Real>(re), std::span<const Real>(im),
                      std::span<Real>(re));
  return re;
}

/// Scores range bins of one chirp window against a signature bank. @p rows_p
/// holds the window's n_targets+1 offsets into the pass's row table (target
/// t's rows are [rows_p[t], rows_p[t+1])); the bank's @p rows are that
/// contiguous run. Scores land in the window's tag-major [t·n_bins + b] blk
/// matrices. score() writes only bin b's slots, so concurrent calls on
/// distinct bins never race.
struct BinScorer {
  const TagDetectorConfig& config;
  const ScoreBank& bank;
  std::size_t rows;
  const std::size_t* rows_p;
  std::size_t n_bins;
  double* blk_metric_p;
  double* blk_tone_p;
  double* blk_score_p;

  /// @p total is the spectrum's non-DC power, summed in ascending bin order.
  void score(std::size_t b, std::span<const double> spectrum,
             double total) const {
    thread_local dsp::RVec on, son;
    on.resize(rows);
    son.resize(rows);
    dsp::kernels::ktagscore(spectrum, bank.idx, bank.w, bank.g, rows, on, son);

    // The floor (the spectrum's median level) is read only by the
    // prominence gate of rows that passed the signature gate, so it is
    // computed at the first such row, or never. It is a pure function of
    // the spectrum, so every row that reads it sees the value an eager
    // evaluation would have produced: the decisions are the same.
    double floor = -1.0;
    std::size_t t = 0;
    for (std::size_t r = 0; r < rows; ++r) {
      while (rows_p[0] + r >= rows_p[t + 1]) ++t;
      const std::size_t mod_bin = bank.mod_bin[r];
      double p = 0.0;
      for (long long k = static_cast<long long>(mod_bin) - 1;
           k <= static_cast<long long>(mod_bin) + 1; ++k) {
        if (k >= 0 && k < static_cast<long long>(spectrum.size()))
          p = std::max(p, spectrum[static_cast<std::size_t>(k)]);
      }
      const double s = dsp::signature_score_from(on[r], bank.on_w[r], son[r],
                                                 total, bank.off_n[r]);
      const std::size_t slot = t * n_bins + b;
      blk_tone_p[slot] = std::max(blk_tone_p[slot], p);
      blk_score_p[slot] = std::max(blk_score_p[slot], s);
      if (s < config.min_signature_score) continue;
      if (floor < 0.0)
        floor = std::max(bis::median(spectrum.subspan(1)), 1e-30);
      if (p < config.min_tone_prominence * floor) continue;
      blk_metric_p[slot] = std::max(blk_metric_p[slot], p * s);
    }
  }
};

/// One (window, strip) work item: the strip's spectra, then each bin's
/// scores. Each bin's non-DC total is summed lane-wise in ascending bin
/// order (per lane the one-bin loop's additions), then its spectrum is
/// copied out of the bin-interleaved strip into one contiguous row
/// (ktagscore gathers from it).
template <typename Real>
void score_strip(const AlignedProfiles& profiles,
                 std::span<const std::uint32_t> bins, std::size_t first,
                 const StripPlan<Real>& plan, const BinScorer& scorer) {
  const auto power = strip_power(profiles, bins, first, plan);
  const std::size_t lanes = bins.size();
  const std::size_t n_spec = power.size() / lanes;
  thread_local dsp::RVec wide, total, spectrum;
  const double* sp;
  if constexpr (std::is_same_v<Real, double>) {
    sp = power.data();
  } else {
    wide.resize(power.size());
    for (std::size_t i = 0; i < power.size(); ++i)
      wide[i] = static_cast<double>(power[i]);
    sp = wide.data();
  }
  total.assign(lanes, 0.0);
  for (std::size_t k = 1; k < n_spec; ++k)
    for (std::size_t j = 0; j < lanes; ++j) total[j] += sp[k * lanes + j];
  spectrum.resize(n_spec);
  for (std::size_t j = 0; j < lanes; ++j) {
    for (std::size_t k = 0; k < n_spec; ++k) spectrum[k] = sp[k * lanes + j];
    scorer.score(bins[j], spectrum, total[j]);
  }
}

/// Per-tag detection epilogue: peak pick on the fused metric, noise floor
/// from the other bins' tone power, SNR threshold, sub-bin range
/// refinement, and the obs gauges.
void finalize_tag(const TagDetectorConfig& config,
                  const AlignedProfiles& profiles,
                  std::span<const double> metric_row,
                  std::span<const double> tone_row,
                  std::span<const double> score_row, TagDetection& det) {
  const std::size_t n_bins = profiles.n_bins();
  const dsp::Peak peak = dsp::find_peak(metric_row);
  if (metric_row[peak.index] <= 0.0) return;

  static obs::Gauge& snr_gauge =
      obs::Registry::instance().gauge("bis.radar.detector_snr_db");
  static obs::Histogram& snr_hist = obs::Registry::instance().histogram(
      "bis.radar.detector_snr_hist_db",
      {0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 40.0, 60.0});
  static obs::Counter& detections =
      obs::Registry::instance().counter("bis.radar.detections");

  // Noise floor: median modulation-tone power across the *other* range
  // bins (same slow-time frequencies, no tag). Using off-tone bins of the
  // tag's own spectrum would measure the square wave's spectral leakage
  // instead of the noise, saturating the SNR estimate.
  thread_local std::vector<double> noise_bins;
  noise_bins.clear();
  noise_bins.reserve(n_bins);
  const std::size_t exclusion = 4;
  for (std::size_t b = 0; b < n_bins; ++b) {
    if (profiles.range_grid[b] < config.min_range_m) continue;
    const auto dist = b > peak.index ? b - peak.index : peak.index - b;
    if (dist <= exclusion) continue;
    noise_bins.push_back(tone_row[b]);
  }
  const double noise = noise_bins.empty() ? 1e-30 : bis::median(noise_bins);
  const double snr_db = to_db(std::max(tone_row[peak.index], 1e-30) /
                              std::max(noise, 1e-30));

  det.grid_bin = peak.index;
  det.mod_power = tone_row[peak.index];
  det.signature_score = score_row[peak.index];
  det.snr_db = snr_db;
  det.found = snr_db >= config.detection_threshold_db;

  snr_gauge.set(snr_db);
  snr_hist.observe(std::max(snr_db, 0.0));
  if (det.found) detections.add();

  // Sub-bin range refinement on the detection metric.
  const double grid_step =
      profiles.range_grid.size() >= 2
          ? profiles.range_grid[1] - profiles.range_grid[0]
          : 0.0;
  det.range_m =
      profiles.range_grid[peak.index] +
      (peak.refined_index - static_cast<double>(peak.index)) * grid_step;
}

/// The one scoring pass behind detect_many and detect_slots. Each window
/// names a chirp range [first_chirp, first_chirp+n_chirps) and the run of
/// targets [first_target, first_target+n_targets) scored against it.
/// detect_many's windows are its integration blocks, each covering every
/// target; detect_slots' windows are its slots, each covering its own run.
/// Results land in @p out, which the caller has already reset.
void score_windows(const TagDetectorConfig& config,
                   const AlignedProfiles& profiles,
                   std::span<const SlotSpan> windows,
                   std::span<const TagTarget> targets,
                   std::span<TagDetection> out, ThreadPool* pool) {
  const std::size_t n_bins = profiles.n_bins();

  // The frame's slow-time cadence is the first chirp's duration + idle, and
  // under CSSK the slope draw perturbs that sum's last ULP — a different
  // double per frame for the same physical cadence, which would mint a new
  // signature-cache key (and rebuild the score bank) every call. Quantize to
  // 1 ps: a pure function of the value, so scoring stays bit-identical
  // across threads and call orders, and each physical cadence maps to one
  // cache key.
  const double chirp_period =
      std::round(profiles.chirp_period_s * 1e12) / 1e12;

  // Flatten every (target, candidate frequency) pair into one scoring row;
  // tag_rows[t]..tag_rows[t+1] are target t's rows in candidate order, so a
  // window's rows are the contiguous run of its targets' rows.
  thread_local std::vector<double> row_freqs;
  thread_local std::vector<std::size_t> tag_rows;
  row_freqs.clear();
  tag_rows.clear();
  for (const TagTarget& target : targets) {
    tag_rows.push_back(row_freqs.size());
    std::span<const double> cands(target.candidate_mod_freqs_hz);
    if (cands.empty())
      cands = std::span<const double>(&target.expected_mod_freq_hz, 1);
    for (double f : cands) {
      BIS_CHECK(f > 0.0);
      row_freqs.push_back(f);
    }
  }
  tag_rows.push_back(row_freqs.size());

  // The scored bins (range ≥ min_range_m), in grid order; strips are runs of
  // kStripBins of them.
  thread_local std::vector<std::uint32_t> bins;
  bins.clear();
  for (std::size_t b = 0; b < n_bins; ++b)
    if (!(profiles.range_grid[b] < config.min_range_m))
      bins.push_back(static_cast<std::uint32_t>(b));
  const std::size_t n_scored = bins.size();
  const std::size_t n_strips = (n_scored + kStripBins - 1) / kStripBins;

  // Window w's tag-major [t·n_bins + b] score matrices start at
  // blk_first[w], t relative to the window's first target. Per-thread
  // scratch: the streaming engine detects thousands of frames per second
  // and every call fully overwrites it.
  thread_local std::vector<std::size_t> blk_first;
  blk_first.clear();
  std::size_t blk_total = 0;
  for (const SlotSpan& w : windows) {
    blk_first.push_back(blk_total);
    blk_total += w.n_targets * n_bins;
  }
  thread_local dsp::RVec blk_metric, blk_tone, blk_score;
  blk_metric.assign(blk_total, 0.0);
  blk_tone.assign(blk_total, 0.0);
  blk_score.assign(blk_total, 0.0);

  // Workers must use the *calling* thread's scratch: thread_local variables
  // are not captured by lambdas — inside a pool worker they'd name that
  // worker's own (empty) instances. Raw pointers pin the shared buffers;
  // each (window, strip) item writes only its own bins' slots, so there is
  // no race.
  // The signature bank is a per-worker thread_local memo: a frame scores the
  // same rows in every block, and an inventory round the same channel plan
  // in every slot, so each lane builds it once and then hits. Bank contents
  // are a pure function of the key, so which lane runs which item cannot
  // change any score.
  const double* const row_freqs_p = row_freqs.data();
  const std::size_t* const tag_rows_p = tag_rows.data();
  const std::size_t* const blk_first_p = blk_first.data();
  const std::uint32_t* const bins_p = bins.data();
  const bool f32 = config.precision == dsp::Precision::kFloat32Fast;
  const StripPlan<double>* const plans_d =
      f32 ? nullptr
          : strip_plans<double>(windows, config.slow_time_pad_factor);
  const StripPlan<float>* const plans_f =
      f32 ? strip_plans<float>(windows, config.slow_time_pad_factor)
          : nullptr;
  double* const blk_metric_p = blk_metric.data();
  double* const blk_tone_p = blk_tone.data();
  double* const blk_score_p = blk_score.data();

  // Per-range-bin scores: the slow-time tone power at each candidate
  // frequency, gated by the square-wave signature correlation and by tone
  // *prominence* over the bin's own spectral floor (broadband clutter
  // residue under CSSK slope variation is flat, a tag tone is not). Each
  // (window, strip) item computes its bins' spectra in one batched
  // transform and shares each spectrum, its floor and its total non-DC
  // power across every row — a pure map, bit-identical for any thread count.
  bis::parallel_for(pool, 0, windows.size() * n_strips, [&](std::size_t item) {
    const std::size_t w = item / n_strips;
    const std::size_t lo = (item % n_strips) * kStripBins;
    const std::span<const std::uint32_t> strip(
        bins_p + lo, std::min(kStripBins, n_scored - lo));
    const SlotSpan& win = windows[w];
    const std::size_t* const rows_p = tag_rows_p + win.first_target;
    const std::size_t rows = rows_p[win.n_targets] - rows_p[0];
    const std::size_t n_fft = dsp::next_power_of_two(win.n_chirps) *
                              config.slow_time_pad_factor;
    const ScoreBank& bank = cached_bank(
        std::span<const double>(row_freqs_p + rows_p[0], rows),
        config.duty_cycle, win.n_chirps, chirp_period, n_fft,
        config.n_harmonics);
    const std::size_t off = blk_first_p[w];
    const BinScorer scorer{config,           bank,
                           rows,             rows_p,
                           n_bins,           blk_metric_p + off,
                           blk_tone_p + off, blk_score_p + off};
    if (f32)
      score_strip(profiles, strip, win.first_chirp, plans_f[w], scorer);
    else
      score_strip(profiles, strip, win.first_chirp, plans_d[w], scorer);
  });

  // Fuse + epilogue, sequential in target order (metrics are recorded in the
  // same order a sequential per-tag loop would record them). Under FSK the
  // tag hops tones per symbol block, so a target sums the peak-normalised
  // metric of every window covering it, in window order: the true tag bin
  // scores in every block, a clutter-residue fluke rarely repeats. Tone
  // power and signature score max-merge from zero.
  thread_local dsp::RVec metric_row, tone_row, score_row;
  metric_row.resize(n_bins);
  tone_row.resize(n_bins);
  score_row.resize(n_bins);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    std::fill(metric_row.begin(), metric_row.end(), 0.0);
    std::fill(tone_row.begin(), tone_row.end(), 0.0);
    std::fill(score_row.begin(), score_row.end(), 0.0);
    for (std::size_t w = 0; w < windows.size(); ++w) {
      const SlotSpan& win = windows[w];
      if (t < win.first_target || t - win.first_target >= win.n_targets)
        continue;
      const std::size_t off = blk_first[w] + (t - win.first_target) * n_bins;
      const std::span<const double> bm(blk_metric.data() + off, n_bins);
      const double peak = *std::max_element(bm.begin(), bm.end());
      const double norm = peak > 0.0 ? 1.0 / peak : 0.0;
      dsp::kernels::kaxpy(norm, bm, metric_row);
      for (std::size_t b = 0; b < n_bins; ++b) {
        tone_row[b] = std::max(tone_row[b], blk_tone[off + b]);
        score_row[b] = std::max(score_row[b], blk_score[off + b]);
      }
    }
    // A target no window covers keeps a zero metric: finalize_tag leaves
    // its detection empty.
    finalize_tag(config, profiles, metric_row, tone_row, score_row, out[t]);
  }
}

}  // namespace

dsp::RVec TagDetector::slow_time_spectrum(const AlignedProfiles& profiles,
                                          std::size_t bin, std::size_t first,
                                          std::size_t count) const {
  const std::size_t n_chirps = profiles.n_chirps();
  BIS_CHECK(bin < profiles.n_bins());
  BIS_CHECK(first < n_chirps);
  if (count == 0) count = n_chirps - first;
  BIS_CHECK(first + count <= n_chirps);
  BIS_CHECK(count >= 4);
  // A one-bin strip: the detector's own path.
  const auto b = static_cast<std::uint32_t>(bin);
  const std::span<const std::uint32_t> one(&b, 1);
  const std::size_t pad = config_.slow_time_pad_factor;
  if (config_.precision == dsp::Precision::kFloat32Fast) {
    const auto p =
        strip_power(profiles, one, first, make_strip_plan<float>(count, pad));
    return dsp::RVec(p.begin(), p.end());
  }
  const auto p =
      strip_power(profiles, one, first, make_strip_plan<double>(count, pad));
  return dsp::RVec(p.begin(), p.end());
}

TagDetection TagDetector::detect(const AlignedProfiles& profiles,
                                 ThreadPool* pool) const {
  TagDetection det;
  detect_many(profiles, std::span<const TagTarget>(&self_target_, 1),
              std::span<TagDetection>(&det, 1), pool);
  return det;
}

std::vector<TagDetection> TagDetector::detect_many(
    const AlignedProfiles& profiles, std::span<const TagTarget> targets,
    ThreadPool* pool) const {
  std::vector<TagDetection> out(targets.size());
  detect_many(profiles, targets, out, pool);
  return out;
}

void TagDetector::detect_many(const AlignedProfiles& profiles,
                              std::span<const TagTarget> targets,
                              std::span<TagDetection> out,
                              ThreadPool* pool) const {
  BIS_TRACE_SPAN("radar.detect_many");
  BIS_CHECK(out.size() == targets.size());
  for (auto& det : out) det = TagDetection{};
  if (targets.empty()) return;
  if (profiles.n_chirps() < 8 || profiles.n_bins() < 4) return;

  // One window per integration block (block_chirps; 0 = the whole frame),
  // each covering every target; a trailing partial block is not scored.
  std::size_t block = config_.block_chirps;
  if (block == 0 || block > profiles.n_chirps()) block = profiles.n_chirps();
  thread_local std::vector<SlotSpan> windows;
  windows.clear();
  for (std::size_t first = 0; first + block <= profiles.n_chirps();
       first += block)
    windows.push_back({first, block, 0, targets.size()});
  score_windows(config_, profiles, windows, targets, out, pool);
}

void TagDetector::detect_slots(const AlignedProfiles& profiles,
                               std::span<const SlotSpan> slots,
                               std::span<const TagTarget> targets,
                               std::span<TagDetection> out,
                               ThreadPool* pool) const {
  BIS_TRACE_SPAN("radar.detect_slots");
  BIS_CHECK(out.size() == targets.size());
  for (auto& det : out) det = TagDetection{};
  if (slots.empty()) return;
  if (profiles.n_bins() < 4) return;

  // Each slot is one window. Slots shorter than 8 chirps (or with no
  // targets) keep empty detections — mirroring detect_many's whole-frame
  // guard.
  thread_local std::vector<SlotSpan> windows;
  windows.clear();
  std::size_t next_target = 0;
  for (const SlotSpan& slot : slots) {
    BIS_CHECK(slot.first_chirp + slot.n_chirps <= profiles.n_chirps());
    BIS_CHECK(slot.first_target + slot.n_targets <= targets.size());
    // Each slot is one integration block: block_chirps must not split it.
    BIS_CHECK(config_.block_chirps == 0 ||
              config_.block_chirps >= slot.n_chirps);
    if (slot.n_targets == 0) continue;
    // A target covered by two slots would fuse both windows into one
    // detection (detect_many's cross-block semantics), not score each slot.
    BIS_CHECK_MSG(slot.first_target >= next_target,
                  "slot target runs must be ascending and disjoint");
    next_target = slot.first_target + slot.n_targets;
    if (slot.n_chirps >= 8) windows.push_back(slot);
  }
  score_windows(config_, profiles, windows, targets, out, pool);
}

}  // namespace bis::radar

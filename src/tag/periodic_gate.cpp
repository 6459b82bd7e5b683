#include "tag/periodic_gate.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/constants.hpp"
#include "common/stats.hpp"
#include "dsp/filter.hpp"

namespace bis::tag {

PeriodicGate::PeriodicGate(const PeriodicGateConfig& config) : config_(config) {
  BIS_CHECK(config_.sample_rate_hz > 0.0);
  BIS_CHECK(config_.min_burst_s > 0.0);
  BIS_CHECK(config_.smooth_window >= 1);
  BIS_CHECK(config_.min_contrast > 1.0);
}

std::optional<std::vector<PeriodicWindow>> PeriodicGate::slice(
    const dsp::RVec& stream, double period_s) const {
  BIS_CHECK(period_s > 0.0);
  const double p = period_s * config_.sample_rate_hz;  // period in samples
  const auto p_int = static_cast<std::size_t>(std::lround(p));
  if (p_int < 8 || stream.size() < 2 * p_int) return std::nullopt;

  // Burst indicator: the square-law detector's DC pedestal. The envelope
  // output is (received power + beat tone) during the active sweep and only
  // zero-mean noise during the inter-chirp idle, so the smoothed raw signal
  // gates bursts independently of the beat-tone frequency.
  const auto energy = dsp::moving_average(stream, config_.smooth_window);

  // Fold modulo the (fractional) period.
  const auto n_periods = static_cast<std::size_t>(
      std::floor(static_cast<double>(stream.size()) / p));
  dsp::RVec folded(p_int, 0.0);
  std::vector<std::size_t> counts(p_int, 0);
  for (std::size_t k = 0; k < n_periods; ++k) {
    const auto base = static_cast<std::size_t>(std::lround(static_cast<double>(k) * p));
    for (std::size_t j = 0; j < p_int && base + j < energy.size(); ++j) {
      folded[j] += energy[base + j];
      ++counts[j];
    }
  }
  for (std::size_t j = 0; j < p_int; ++j)
    if (counts[j] > 0) folded[j] /= static_cast<double>(counts[j]);

  // The folded pedestal is signed (idle sits at zero-mean noise), so gate a
  // fixed fraction of the way up from the idle level to the burst level,
  // and require the burst level to clear the idle spread.
  const double p10 = bis::percentile(folded, 10.0);
  const double lo = std::max(p10, 0.0);
  const double hi = bis::percentile(folded, 90.0);
  const double idle_spread = p10 - bis::percentile(folded, 2.0);
  if (hi - lo <= config_.min_contrast * std::max(idle_spread, 1e-15))
    return std::nullopt;
  const double threshold = lo + 0.35 * (hi - lo);

  // Chirp-start phase: the rising edge with the largest jump in the folded
  // profile (circular).
  std::size_t phase = 0;
  double best_rise = -1.0;
  for (std::size_t j = 0; j < p_int; ++j) {
    const std::size_t prev = (j + p_int - 1) % p_int;
    if (folded[prev] < threshold && folded[j] >= threshold) {
      const double rise = folded[j] - folded[prev];
      if (rise > best_rise) {
        best_rise = rise;
        phase = j;
      }
    }
  }
  if (best_rise < 0.0) return std::nullopt;

  const auto min_len = static_cast<std::size_t>(
      config_.min_burst_s * config_.sample_rate_hz);

  // Per-period windows: start near the common phase (refined to this
  // period's own rising edge — the fractional-period estimate drifts a few
  // samples over a long frame), end where the energy falls below threshold
  // (tolerating short dips of tone nulls).
  std::vector<PeriodicWindow> windows;
  windows.reserve(n_periods + 2);
  const std::size_t margin = config_.smooth_window + 2;
  // A slight period over-estimate would truncate the final chirp if the
  // loop were bounded by n_periods; run past it and let the start-bound
  // check below terminate.
  for (std::size_t k = 0; k < n_periods + 2; ++k) {
    const auto nominal = static_cast<std::size_t>(
        std::lround(static_cast<double>(k) * p + static_cast<double>(phase)));
    if (nominal + min_len >= energy.size()) break;

    // Refine: the below→above rising edge within ±margin of the nominal
    // start (a bare above-threshold test would snap onto the previous
    // burst's tail). No edge = no burst this period.
    const std::size_t search_lo = nominal > margin ? nominal - margin : 1;
    const std::size_t search_hi = std::min(nominal + margin, energy.size() - 1);
    std::size_t base = nominal;
    bool edge_found = false;
    for (std::size_t i = search_lo; i <= search_hi; ++i) {
      if (energy[i - 1] < threshold && energy[i] >= threshold) {
        base = i;
        edge_found = true;
        break;
      }
    }
    if (!edge_found && energy[nominal] >= threshold) {
      // Continuously energized across the search window (rare: the previous
      // burst ran right up to this one) — keep the nominal start.
      base = nominal;
      edge_found = true;
    }
    if (!edge_found) {
      windows.push_back(PeriodicWindow{nominal, 0, false});
      continue;
    }
    const std::size_t limit = std::min(nominal + p_int, energy.size());

    std::size_t end = base;
    std::size_t below = 0;
    const std::size_t max_dip = std::max<std::size_t>(
        2, static_cast<std::size_t>(config_.max_dip_s * config_.sample_rate_hz));
    for (std::size_t i = base; i < limit; ++i) {
      if (energy[i] >= threshold) {
        end = i + 1;
        below = 0;
      } else if (++below > max_dip) {
        break;
      }
    }

    PeriodicWindow w;
    w.start = base;
    w.length = end > base ? end - base : 0;
    // The trailing moving-average tail overshoots the burst end by a few
    // samples; trim roughly half the smoothing length (the classifier's
    // Hann weighting de-emphasizes boundary samples anyway).
    const std::size_t trim = config_.smooth_window / 2;
    if (w.length > trim) w.length -= trim;

    // Presence is judged on the mean pedestal over the minimum window — a
    // low-frequency beat tone swings the instantaneous envelope through
    // zero, so the threshold-run length alone would discard long bursts
    // whose first trough arrives early.
    double mean_lead = 0.0;
    const std::size_t lead = std::min(min_len, energy.size() - base);
    for (std::size_t i = 0; i < lead; ++i) mean_lead += energy[base + i];
    mean_lead /= std::max<double>(1.0, static_cast<double>(lead));
    w.burst_present = mean_lead >= 0.8 * threshold && lead >= min_len;
    if (w.burst_present && w.length < min_len) w.length = min_len;
    windows.push_back(w);
  }
  if (windows.empty()) return std::nullopt;
  return windows;
}

}  // namespace bis::tag

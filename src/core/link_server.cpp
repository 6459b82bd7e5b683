#include "core/link_server.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "dsp/fft.hpp"
#include "obs/sink.hpp"
#include "obs/trace.hpp"
#include "radar/range_processor.hpp"

namespace bis::core {

namespace {

/// splitmix64 finalizer — scrambles the link index into an independent seed
/// so adjacent links don't get adjacent xoshiro states.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t link_seed(const LinkServerConfig& config, std::size_t link) {
  return config.base.seed ^ mix64(static_cast<std::uint64_t>(link) + 1);
}

SystemConfig link_config(const LinkServerConfig& config, std::size_t link) {
  return link_config(config, link, config.base.make_alphabet());
}

SystemConfig link_config(const LinkServerConfig& config, std::size_t link,
                         const phy::SlopeAlphabet& alphabet) {
  SystemConfig c = config.base;
  c.seed = link_seed(config, link);
  // Inside the server, parallelism comes from running links side by side;
  // nested per-stage pools would oversubscribe and change nothing
  // numerically.
  c.dsp_threads = 1;
  // Pin the IF-correction grid to the whole alphabet (see the header doc):
  // max_range_m = min over slots of R_max is always covered by every chirp,
  // so the aligner's min(config, frame cover) resolves to the pinned value
  // for every frame. User-set values are respected.
  if (c.if_correction.enabled) {
    const double fs = c.radar.if_synth.sample_rate_hz;
    const std::size_t pad = radar::RangeProcessorConfig{}.zero_pad_factor;
    double r_min = std::numeric_limits<double>::infinity();
    std::size_t nfft_max = 0;
    for (std::size_t slot = 0; slot < alphabet.slot_count(); ++slot) {
      const rf::ChirpParams chirp = alphabet.chirp(slot);
      const auto n = static_cast<std::size_t>(std::floor(chirp.duration_s * fs));
      if (n == 0) continue;
      r_min = std::min(r_min, chirp.max_unambiguous_range(fs));
      nfft_max = std::max(nfft_max, dsp::next_power_of_two(n) * pad);
    }
    if (c.if_correction.max_range_m <= 0.0 && std::isfinite(r_min))
      c.if_correction.max_range_m = r_min;
    if (c.if_correction.grid_bins == 0) c.if_correction.grid_bins = nfft_max;
  }
  return c;
}

std::vector<SequentialLinkResult> run_links_sequential(
    const LinkServerConfig& config, std::size_t frames_per_link) {
  const phy::SlopeAlphabet alphabet = config.base.make_alphabet();
  std::vector<SequentialLinkResult> out(config.n_links);
  for (std::size_t i = 0; i < config.n_links; ++i) {
    LinkSimulator sim(link_config(config, i, alphabet), alphabet);
    Rng payload_rng(config.payload_seed ^ link_seed(config, i));
    phy::Bits bits;
    for (std::size_t f = 0; f < frames_per_link; ++f) {
      bits.clear();
      for (std::size_t b = 0; b < config.bits_per_frame; ++b)
        bits.push_back(payload_rng.coin() ? 1 : 0);
      const UplinkRunResult r = sim.run_uplink(bits, config.downlink_active);
      if (config.collect_bits)
        out[i].decoded_bits.insert(out[i].decoded_bits.end(),
                                   r.decode.bits.begin(), r.decode.bits.end());
    }
    out[i].report = sim.report();
  }
  return out;
}

std::vector<std::unique_ptr<LinkServer::LinkState>> LinkServer::make_links(
    const LinkServerConfig& config, const phy::SlopeAlphabet& alphabet) {
  BIS_CHECK(config.n_links >= 1);
  BIS_CHECK(config.bits_per_frame >= 1);
  std::vector<std::unique_ptr<LinkState>> links;
  links.reserve(config.n_links);
  for (std::size_t i = 0; i < config.n_links; ++i) {
    auto st = std::make_unique<LinkState>();
    st->sim = std::make_unique<LinkSimulator>(link_config(config, i, alphabet),
                                              alphabet);
    st->payload_rng = Rng(config.payload_seed ^ link_seed(config, i));
    links.push_back(std::move(st));
  }
  // Build every window/FFT/regrid plan the alphabet can demand before the
  // pool's lanes start, and size the caller's thread_local DSP scratch: the
  // caller is a lane too. Link 0's config stands in for all links (only the
  // seed differs).
  links.front()->sim->warm_caches();
  return links;
}

LinkServer::LinkServer(const LinkServerConfig& config)
    : LinkServer(config, config.base.make_alphabet()) {}

LinkServer::LinkServer(const LinkServerConfig& config,
                       const phy::SlopeAlphabet& shared_alphabet)
    : config_(config),
      alphabet_(shared_alphabet),
      links_(make_links(config_, alphabet_)),
      // Each worker sizes its own scratch the same way before it runs a
      // frame; the plans are already cached, so this is a handful of small
      // dry FFTs.
      pool_(config.workers, [this] { links_.front()->sim->warm_caches(); }) {
  // Publish this server's per-stage stats through the process-wide
  // TelemetrySink when one is running (obs::TelemetrySink::ensure_global,
  // called before the server is built).
  if (auto* sink = obs::TelemetrySink::global()) {
    sink->attach_server_stats(&stats_);
  }
}

LinkServer::~LinkServer() {
  if (auto* sink = obs::TelemetrySink::global()) {
    sink->detach_server_stats(&stats_);
  }
}

void LinkServer::run_link(std::size_t link, std::size_t frames) {
  LinkState& st = *links_[link];
  for (std::size_t f = 0; f < frames; ++f) {
    const std::uint64_t start = obs::enabled() ? obs::now_ns() : 0;
    st.frame_bits.clear();
    for (std::size_t b = 0; b < config_.bits_per_frame; ++b)
      st.frame_bits.push_back(st.payload_rng.coin() ? 1 : 0);
    st.sim->prepare_uplink_frame(st.frame_bits, config_.downlink_active,
                                 st.job);
    const UplinkRunResult& r = st.sim->run_frame(st.job, nullptr, &stats_);
    if (config_.collect_bits)
      st.decoded_bits.insert(st.decoded_bits.end(), r.decode.bits.begin(),
                             r.decode.bits.end());
    if (start != 0) stats_.record_e2e(obs::now_ns() - start);
  }
  if (on_link_done) on_link_done(link, *st.sim);
}

void LinkServer::run(std::size_t frames_per_link) {
  BIS_TRACE_SPAN("core.link_server_run");
  BIS_CHECK(frames_per_link >= 1);
  if (config_.collect_bits)
    for (auto& st : links_)
      st->decoded_bits.reserve(st->decoded_bits.size() +
                               frames_per_link * config_.bits_per_frame);
  bis::parallel_for(&pool_, 0, links_.size(), [&](std::size_t link) {
    run_link(link, frames_per_link);
  });
}

obs::RunReport LinkServer::merged_report() const {
  obs::RunReport merged;
  for (const auto& st : links_) merged.merge(st->sim->report());
  return merged;
}

}  // namespace bis::core

/// Multi-link server engine.
///
/// Advances several concurrent radar↔tag links side by side on a small
/// thread pool; each lane runs a link's frames through the stages
/// (synthesize → range FFT → IF-correct → detect → decode) and stamps each
/// stage's busy time. Per-link reports stream out of on_link_done as each
/// link finishes its round. The engine's determinism contract is checked at the end: decoded
/// bits and outcome counters must be bit-identical to advancing the same
/// links one frame at a time on a single thread.

#include <cstdio>

#include "core/link_server.hpp"
#include "obs/telemetry.hpp"

int main() {
  using namespace bis;

  core::LinkServerConfig cfg;
  cfg.base.seed = 7;
  cfg.base.tag_range_m = 4.0;
  cfg.base.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = 8;
  cfg.workers = 2;  // the calling thread is one of the two lanes
  cfg.bits_per_frame = 2;
  const std::size_t frames = 3;

  obs::set_enabled(true);  // stage clocks run only with telemetry on
  core::LinkServer server(cfg);
  server.on_link_done = [](std::size_t link, const core::LinkSimulator& sim) {
    const obs::RunReport r = sim.report();
    std::printf("  link %zu done: %llu frames, %llu/%llu bits correct, "
                "SNR %.1f dB\n",
                link, static_cast<unsigned long long>(r.uplink_frames),
                static_cast<unsigned long long>(r.uplink_bits -
                                                r.uplink_bit_errors),
                static_cast<unsigned long long>(r.uplink_bits),
                r.detection_attempts > 0
                    ? r.detector_snr_sum_db /
                          static_cast<double>(r.detection_attempts)
                    : 0.0);
  };

  std::printf("running %zu links x %zu frames on %zu workers...\n",
              cfg.n_links, frames, cfg.workers);
  server.run(frames);

  std::printf("\nper-stage busy time:\n");
  for (std::size_t s = 0; s < obs::kServerStages; ++s) {
    const auto stage = static_cast<obs::ServerStage>(s);
    const obs::StageQueueStats st = server.stats().snapshot(stage);
    std::printf("  %-10s %4llu frames  mean %8.1f us  p50 %8.1f us\n",
                obs::stage_name(stage),
                static_cast<unsigned long long>(st.frames), st.mean_busy_us(),
                server.stats().busy_latency(stage).p50() / 1e3);
  }
  std::printf("  end-to-end frame latency p50 %.1f us\n",
              server.stats().e2e_latency().p50() / 1e3);

  // Determinism contract: the link-parallel engine reproduces the
  // sequential reference bit-for-bit at any worker count.
  const auto reference = core::run_links_sequential(cfg, frames);
  bool identical = true;
  for (std::size_t i = 0; i < cfg.n_links; ++i) {
    identical = identical &&
                server.link(i).report().outcome_key() ==
                    reference[i].report.outcome_key() &&
                server.decoded_bits(i) == reference[i].decoded_bits;
  }
  std::printf("\nserver == sequential: %s\n", identical ? "yes" : "NO");
  return identical ? 0 : 1;
}

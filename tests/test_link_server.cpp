// Multi-link server engine: the determinism contract (per-link outputs
// bit-identical to the sequential LinkSimulator at any worker count),
// multi-round continuation, and the on_link_done streaming hook.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "core/link_server.hpp"
#include "obs/telemetry.hpp"

namespace bis::core {
namespace {

/// Light OOK configuration: 2 bits/frame → 32 chirps/frame, small enough to
/// run many links × worker counts in a unit test while still exercising the
/// whole frame path (synthesis with noise, range FFT, alignment, detection,
/// decoding).
LinkServerConfig light_config(std::size_t links, std::size_t workers) {
  LinkServerConfig cfg;
  cfg.base.seed = 77;
  cfg.base.tag_range_m = 4.0;
  cfg.base.tag.node.uplink.scheme = phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = links;
  cfg.workers = workers;
  cfg.bits_per_frame = 2;
  return cfg;
}

TEST(LinkServer, MatchesSequentialAnyWorkerCount) {
  const std::size_t kFrames = 3;
  struct Case {
    std::size_t links;
    std::size_t workers;
  };
  // 6 links at 1/2/4 workers, plus fewer links than workers (idle lanes).
  for (const Case c : {Case{6, 1}, Case{6, 2}, Case{6, 4}, Case{1, 4},
                       Case{2, 4}}) {
    const auto reference =
        run_links_sequential(light_config(c.links, 1), kFrames);
    ASSERT_EQ(reference.size(), c.links);
    LinkServer server(light_config(c.links, c.workers));
    server.run(kFrames);
    for (std::size_t i = 0; i < c.links; ++i) {
      EXPECT_EQ(server.link(i).report().outcome_key(),
                reference[i].report.outcome_key())
          << "link " << i << " of " << c.links << " with " << c.workers
          << " workers";
      EXPECT_EQ(server.decoded_bits(i), reference[i].decoded_bits)
          << "link " << i << " of " << c.links << " with " << c.workers
          << " workers";
    }
  }
}

TEST(LinkServer, TwoRoundsContinueDeterministically) {
  // Link state (RNG, modulator, report) carries across run() calls: two
  // rounds of 2 frames equal one sequential pass of 4 frames.
  const std::size_t kLinks = 4;
  const auto reference = run_links_sequential(light_config(kLinks, 1), 4);

  LinkServer server(light_config(kLinks, 3));
  server.run(2);
  server.run(2);
  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(server.link(i).report().outcome_key(),
              reference[i].report.outcome_key())
        << "link " << i;
    EXPECT_EQ(server.decoded_bits(i), reference[i].decoded_bits) << "link " << i;
  }
}

TEST(LinkServer, StreamsReportsOnLinkDone) {
  const std::size_t kLinks = 5;
  const std::size_t kFrames = 2;
  LinkServer server(light_config(kLinks, 2));

  std::mutex mu;
  std::vector<int> fired(kLinks, 0);
  std::vector<std::uint64_t> frames_at_callback(kLinks, 0);
  server.on_link_done = [&](std::size_t link, const LinkSimulator& sim) {
    const std::lock_guard<std::mutex> lock(mu);
    ++fired[link];
    frames_at_callback[link] = sim.report().uplink_frames;
  };
  server.run(kFrames);

  for (std::size_t i = 0; i < kLinks; ++i) {
    EXPECT_EQ(fired[i], 1) << "link " << i;
    EXPECT_EQ(frames_at_callback[i], kFrames) << "link " << i;
  }
}

TEST(LinkServer, ThrowingLinkDoneIsRethrownFromRun) {
  // The callback runs on whichever lane ran the link — a worker thread for
  // most links — and its exception must reach run()'s caller instead of
  // terminating the process; the server must then shut down cleanly.
  const std::size_t kLinks = 8;
  auto server = std::make_unique<LinkServer>(light_config(kLinks, 4));
  std::atomic<int> calls{0};
  server->on_link_done = [&](std::size_t, const LinkSimulator&) {
    calls.fetch_add(1);
    throw std::runtime_error("link done failed");
  };
  EXPECT_THROW(server->run(1), std::runtime_error);
  EXPECT_GE(calls.load(), 1);
  server.reset();
}

TEST(LinkServer, MergedReportAggregatesEveryLink) {
  const std::size_t kLinks = 3;
  const std::size_t kFrames = 2;
  LinkServer server(light_config(kLinks, 2));
  server.run(kFrames);
  const obs::RunReport merged = server.merged_report();
  EXPECT_EQ(merged.uplink_frames, kLinks * kFrames);
  EXPECT_EQ(merged.detection_attempts, kLinks * kFrames);
  EXPECT_EQ(merged.uplink_bits,
            kLinks * kFrames * server.config().bits_per_frame);
  // Every stage saw every frame exactly once.
  for (std::size_t s = 0; s < obs::kServerStages; ++s) {
    EXPECT_EQ(server.stats().snapshot(static_cast<obs::ServerStage>(s)).frames,
              kLinks * kFrames)
        << obs::stage_name(static_cast<obs::ServerStage>(s));
  }
}

TEST(LinkServer, ReportStageSecondsEqualCollectorBusyTime) {
  // One timer feeds both: with telemetry on, the links' report stage
  // seconds and the server collector's busy time are the same measurement.
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const std::size_t kLinks = 4;
  LinkServer server(light_config(kLinks, 2));
  server.run(3);
  obs::set_enabled(was_enabled);

  for (std::size_t s = 0; s < obs::kServerStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    double report_s = 0.0;
    for (std::size_t i = 0; i < kLinks; ++i) {
      const double link_s = server.link(i).report().stage_s[s];
      EXPECT_GT(link_s, 0.0) << obs::stage_name(stage) << " link " << i;
      report_s += link_s;
    }
    const double busy_s =
        static_cast<double>(server.stats().snapshot(stage).busy_ns) / 1e9;
    EXPECT_NEAR(report_s, busy_s, 1e-9 * busy_s) << obs::stage_name(stage);
    EXPECT_DOUBLE_EQ(server.merged_report().stage_s[s], report_s)
        << obs::stage_name(stage);
  }
}

}  // namespace
}  // namespace bis::core

#pragma once

/// @file link_server.hpp
/// Multi-link server engine: N concurrent radar ⇄ tag links advanced
/// link-parallel on a server-owned ThreadPool. Where LinkSimulator runs one
/// frame of one link at a time, the LinkServer runs a whole deployment — the
/// model of a radar basestation serving many IoT tags (paper §6 envisions
/// many tags per radar) and the repo's throughput engine for large scenes.
///
/// ## Execution
///
/// run(frames) is one parallel_for over links. A lane that claims link i
/// advances it through all of its frames: it draws the payload, calls
/// LinkSimulator::prepare_uplink_frame, then LinkSimulator::run_frame,
///
///   synthesize → range_fft → if_correct → detect → decode → fold
///
/// whose obs::StageScope timers record each stage's busy time into stats()
/// and the link's own report alike. Each link owns one
/// UplinkFrameJob whose buffers are reused forever, and the pool recycles
/// its loop states, so the steady-state frame loop performs no heap
/// allocation. A frame never waits in a queue between stages: queue wait
/// is zero by construction.
///
/// ## Determinism contract
///
/// Per-link outputs (decoded bits, RunReport outcome counters) are
/// bit-identical to running the same links frame-by-frame on one thread,
/// regardless of worker count: each link owns its RNG, modulator and report
/// and is only ever touched by the one lane running it, and the stages'
/// thread-local scratch is fully overwritten per call.
/// run_links_sequential() is the reference implementation tests compare
/// against (tests/test_link_server.cpp).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/link_simulator.hpp"
#include "obs/server_stats.hpp"

namespace bis::core {

struct LinkServerConfig {
  SystemConfig base;          ///< Template configuration; per-link seeds are
                              ///< derived from base.seed and the link index.
  std::size_t n_links = 1;
  /// Worker lanes, including the calling thread: 1 = the caller does all the
  /// work (no threads spawned), w > 1 spawns w−1 pool workers.
  std::size_t workers = 1;
  std::size_t bits_per_frame = 8;   ///< Uplink payload bits per frame.
  std::uint64_t payload_seed = 0x5EEDull;  ///< Per-link payload streams.
  bool downlink_active = true;  ///< Vary chirp slopes (CSSK) while sensing.
  bool collect_bits = true;     ///< Accumulate per-link decoded bits (the
                                ///< determinism-diff artifact).
};

/// Per-link seed derivation shared by the server and the sequential
/// reference (splitmix-style odd-constant scramble of the link index).
std::uint64_t link_seed(const LinkServerConfig& config, std::size_t link);

/// Per-link SystemConfig: base with the derived seed, dsp_threads forced to
/// 1 (inside the server, parallelism comes from running links side by side,
/// not from nested per-stage pools), and the IF-correction grid pinned to
/// the whole alphabet — grid_bins to the largest slot's FFT size and
/// max_range_m to the smallest slot's unambiguous range (only where the
/// base config leaves them at their derive-per-frame defaults). A pinned grid is identical for
/// every frame regardless of which CSSK slopes it draws, so the regrid-plan
/// working set is one plan per alphabet slot and steady-state frames never
/// miss the plan cache.
SystemConfig link_config(const LinkServerConfig& config, std::size_t link);

/// Overload reusing a prebuilt alphabet (the grid pinning needs one; the
/// alphabet is a pure function of the base config, so results are identical).
SystemConfig link_config(const LinkServerConfig& config, std::size_t link,
                         const phy::SlopeAlphabet& alphabet);

/// Outcome of one link, as produced by the sequential reference.
struct SequentialLinkResult {
  obs::RunReport report;
  phy::Bits decoded_bits;  ///< Concatenated decoded bits, frame order.
};

/// Reference implementation of the server's work: the same links advanced
/// frame-by-frame on the calling thread. The determinism contract states the
/// LinkServer reproduces these outputs bit-for-bit at any worker count.
std::vector<SequentialLinkResult> run_links_sequential(
    const LinkServerConfig& config, std::size_t frames_per_link);

class LinkServer {
 public:
  explicit LinkServer(const LinkServerConfig& config);
  /// Shares a prebuilt slope alphabet across every link (the alphabet does
  /// not depend on the seed, so all links use identical chirp tables).
  LinkServer(const LinkServerConfig& config,
             const phy::SlopeAlphabet& shared_alphabet);
  ~LinkServer();

  LinkServer(const LinkServer&) = delete;
  LinkServer& operator=(const LinkServer&) = delete;

  /// Advance every link by @p frames_per_link uplink frames. Blocks until
  /// the round completes; the calling thread works as a lane. An exception
  /// from a link (or from on_link_done) is rethrown here once the round's
  /// other lanes have stopped.
  /// Callable repeatedly — link state (RNG, modulator, report) carries over,
  /// so two run(N) rounds equal one run(2N) equal 2N sequential frames.
  void run(std::size_t frames_per_link);

  /// Streaming hook: invoked (from the lane that ran the link) the moment a
  /// link's last frame of the round folds, with that link's simulator
  /// quiescent. At most one callback runs per link per round; distinct links
  /// may fire concurrently. Set before run().
  std::function<void(std::size_t link, const LinkSimulator& sim)> on_link_done;

  std::size_t n_links() const { return links_.size(); }
  std::size_t workers() const { return config_.workers; }
  const LinkServerConfig& config() const { return config_; }

  /// Link @p i's simulator (reports, configs). Only valid while no round is
  /// running.
  const LinkSimulator& link(std::size_t i) const { return *links_[i]->sim; }

  /// Concatenated decoded uplink bits of link @p i across all rounds
  /// (empty when collect_bits is off).
  const phy::Bits& decoded_bits(std::size_t i) const {
    return links_[i]->decoded_bits;
  }

  /// All links' reports merged (outcome counters add; see RunReport::merge).
  obs::RunReport merged_report() const;

  /// Per-stage frame counts and busy times, and end-to-end frame latency
  /// (payload draw through fold). With telemetry on, a stage's busy time
  /// equals the sum of the links' RunReport::stage_s for that stage.
  const obs::ServerStatsCollector& stats() const { return stats_; }

 private:
  struct LinkState {
    std::unique_ptr<LinkSimulator> sim;
    UplinkFrameJob job;         ///< Every buffer a frame touches, reused.
    Rng payload_rng{0};
    phy::Bits frame_bits;       ///< Payload scratch, reused per frame.
    phy::Bits decoded_bits;     ///< Accumulated decoded bits (collect_bits).
  };

  static std::vector<std::unique_ptr<LinkState>> make_links(
      const LinkServerConfig& config, const phy::SlopeAlphabet& alphabet);
  void run_link(std::size_t link, std::size_t frames);

  LinkServerConfig config_;
  phy::SlopeAlphabet alphabet_;
  std::vector<std::unique_ptr<LinkState>> links_;
  obs::ServerStatsCollector stats_;
  ThreadPool pool_;  ///< Last member: its lanes join before the links go.
};

}  // namespace bis::core

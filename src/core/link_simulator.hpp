#pragma once

/// @file link_simulator.hpp
/// End-to-end BiScatter link simulation: radar ⇄ channel ⇄ tag. This is the
/// main experiment engine behind every evaluation figure:
///   - run_downlink: radar packet → CSSK frame → propagation → tag frontend
///     → tag decoder → bits (Figs. 12, 13, 14, 17);
///   - run_uplink: tag modulation → backscatter → radar IF → range
///     processing → IF correction → detection/localization → uplink bits
///     (Figs. 15, 16);
///   - run_integrated: both in one frame under the ISAC schedule — the
///     radar, which assigned the tag's modulation pattern, places downlink
///     symbols on chirps the tag will absorb, so two-way communication and
///     sensing share every frame (paper §3.3).
///
/// The radar side of an uplink frame runs through core::RadarFrontEnd, the
/// receive chain BiScatterNetwork and InventoryEngine share. The simulator
/// supplies the chirp schedule (fixed sensing slope, or random CSSK slopes
/// while the downlink is active), one window forked from its RNG, its one
/// tag switched by the modulator's per-chirp states, and detect + decode.
///
/// Everything a simulator does lands in its own `report()`: the
/// measurement helpers (core/experiments.hpp), LinkServer and SweepRunner
/// all drive LinkSimulators and merge those reports rather than rebuilding
/// counts from their own results.

#include <memory>

#include "common/thread_pool.hpp"
#include "core/radar_front_end.hpp"
#include "core/system_config.hpp"
#include "obs/report.hpp"
#include "phy/ber.hpp"
#include "radar/tag_detector.hpp"
#include "radar/uplink_decoder.hpp"
#include "tag/tag_node.hpp"

namespace bis::core {

struct DownlinkRunResult {
  bool locked = false;     ///< Tag found the preamble.
  bool crc_ok = false;     ///< Parsed packet passed CRC.
  bool address_match = false;
  std::size_t bit_errors = 0;     ///< Raw framed-bit errors (lost packet =
                                  ///< every bit counted).
  std::size_t bits_compared = 0;
  tag::DownlinkDecodeResult decode;
  phy::ParsedPacket parsed;
};

struct UplinkRunResult {
  radar::TagDetection detection;
  radar::UplinkDecodeResult decode;
  std::size_t bit_errors = 0;
  std::size_t bits_compared = 0;
  double range_error_m = 0.0;       ///< |estimated − true| when detected.
  double snr_processed_db = 0.0;    ///< Detector SNR (incl. processing gain).
  double snr_per_chirp_db = 0.0;    ///< Processed SNR minus FFT gains — the
                                    ///< quantity comparable to Fig. 15.
  bool downlink_active = false;     ///< CSSK slope variation was on.
};

struct IsacRunResult {
  DownlinkRunResult downlink;
  UplinkRunResult uplink;
};

/// One uplink frame flowing through the staged pipeline. The job owns every
/// buffer the stages touch (inputs, the front-end frame, result), so a
/// frame processed with warm capacities allocates nothing — the LinkServer
/// keeps one job per link and recycles it forever.
struct UplinkFrameJob {
  // Inputs, filled by prepare_uplink_frame (the chirp schedule goes into
  // frame.chirps).
  phy::Bits sent_bits;
  bool downlink_active = false;
  std::vector<int> tag_states;
  RadarFrame frame;
  // Output.
  UplinkRunResult result;

  /// Clear the result's vectors (capacity retained) and zero its scalars.
  /// (Assigning a fresh UplinkRunResult would drop the vector capacity and
  /// put an allocation back on the steady-state path.)
  void reset_result();
};

class LinkSimulator {
 public:
  explicit LinkSimulator(const SystemConfig& config);

  /// Shares a precomputed slope alphabet instead of rebuilding it. The
  /// alphabet depends only on the radar/packet/tag parameters (not on seed,
  /// range, or SNR), so sweep runners construct it once per distinct
  /// configuration and hand it to every grid point (see core::SweepRunner).
  /// Behaviour is identical to the single-argument constructor.
  LinkSimulator(const SystemConfig& config, const phy::SlopeAlphabet& shared_alphabet);

  /// One-time tag calibration at config.calibration_range_m (paper §5).
  void calibrate_tag();

  /// Send one downlink packet (tag absorptive throughout — the sequential
  /// downlink mode).
  DownlinkRunResult run_downlink(const phy::Bits& payload);

  /// Send uplink bits across one frame while the radar senses. When
  /// @p downlink_active, the radar simultaneously varies chirp slopes
  /// (random payload), exercising the IF-correction path (Fig. 16's
  /// "during communication" condition).
  UplinkRunResult run_uplink(const phy::Bits& bits, bool downlink_active);

  /// Fully integrated frame: downlink packet + uplink bits + localization.
  /// Only the reply bits in the whole uplink symbols the frame's chirps
  /// carry are compared; the rest count in the report's
  /// `uplink_bits_dropped`, not in `uplink_bits`, and the tag modulator
  /// discards them, so the next frame's reply starts on its chirp 0.
  IsacRunResult run_integrated(const phy::Bits& downlink_payload,
                               const phy::Bits& uplink_bits);

  // ---- Stage API ----
  //
  // An uplink frame advances prepare → synthesize → range_fft → if_correct
  // → detect → decode → fold. Every stage times itself under an
  // obs::StageScope into this simulator's report (and, when given,
  // @p server's collector), and prepare/synthesize/fold also advance the
  // tag modulator and RNG, so a link's stages run frame-ordered on one
  // thread at a time. run_frame is the one place that sequence is written
  // out; run_uplink, run_integrated and core::LinkServer all drive it.

  /// Queue @p bits on the tag, draw the frame's chirp schedule, and fill the
  /// job's inputs. Consumes per-link RNG exactly like run_uplink.
  void prepare_uplink_frame(const phy::Bits& bits, bool downlink_active,
                            UplinkFrameJob& job);
  /// Synthesize per-chirp IF returns (forks the per-link RNG once — must
  /// follow prepare_uplink_frame for the same frame immediately in RNG
  /// order).
  void stage_synthesize(UplinkFrameJob& job,
                        obs::ServerStatsCollector* server = nullptr);
  void stage_range_fft(UplinkFrameJob& job, ThreadPool* pool,
                       obs::ServerStatsCollector* server = nullptr);
  void stage_if_correct(UplinkFrameJob& job, ThreadPool* pool,
                        obs::ServerStatsCollector* server = nullptr);
  void stage_detect(UplinkFrameJob& job, ThreadPool* pool,
                    obs::ServerStatsCollector* server = nullptr);
  void stage_decode(UplinkFrameJob& job,
                    obs::ServerStatsCollector* server = nullptr);
  /// Accumulate the finished frame into the link's report (frame-ordered).
  void fold_uplink_frame(const UplinkFrameJob& job);

  /// Drive a job whose inputs are filled (by prepare_uplink_frame, or by
  /// run_integrated's schedule) through synthesize … decode on @p pool and
  /// fold it. Returns the job's result (a reference into @p job: no copy,
  /// no allocation).
  const UplinkRunResult& run_frame(UplinkFrameJob& job, ThreadPool* pool,
                                   obs::ServerStatsCollector* server = nullptr);

  /// Pre-build every size-dependent shared cache entry (Hann windows, FFT
  /// plans, and — when the IF-correction grid is pinned via
  /// SystemConfig::if_correction — regrid plans) for every chirp in the
  /// alphabet, and grow the calling thread's thread_local DSP scratch to the
  /// worst-case chirp size (RadarFrontEnd::warm_caches). The LinkServer
  /// calls this on each of its lanes so steady-state frames never miss a
  /// plan cache, which would allocate. Safe to call concurrently.
  void warm_caches() const;

  // ---- Analytic link quantities (benchmark axes) ----

  /// One-way received power at the tag decoder input [dBm].
  double downlink_power_at_tag_dbm(double range_m) const;

  /// Per-sample tone SNR at the envelope-detector output [dB] — the
  /// "equivalent SNR" axis of Figs. 13/14/17.
  double downlink_envelope_snr_db(double range_m) const;

  /// Two-way backscatter power at the radar RX [dBm].
  double uplink_power_at_radar_dbm(double range_m) const;

  const phy::SlopeAlphabet& alphabet() const { return alphabet_; }
  tag::TagNode& tag_node() { return tag_; }
  const SystemConfig& config() const { return config_; }

  /// Incident multipath set at the tag for a given range (LoS + channel
  /// taps), in frontend units.
  std::vector<tag::IncidentPath> incident_paths(double range_m) const;

  // ---- Telemetry (see obs/report.hpp) ----

  /// Structured stats accumulated across every run_* call on this
  /// simulator, keyed by config_key(config()). Outcome counters are always
  /// maintained; the per-stage seconds (`stage_s`, seven obs::Stage
  /// entries) fill only while telemetry is enabled (obs::set_enabled or
  /// BIS_TRACE).
  obs::RunReport report() const;
  std::string report_json() const;

  /// Zero the accumulated report.
  void reset_report();

 private:
  /// Fold a finished downlink decode into report_ (shared by run_downlink
  /// and run_integrated).
  void record_downlink(const DownlinkRunResult& result);

  SystemConfig config_;
  phy::SlopeAlphabet alphabet_;
  Rng rng_;
  tag::TagNode tag_;
  RadarFrontEnd front_end_;
  TagReturn tag_return_;  ///< The tag in the sensing scene (range, two-way
                          ///< amplitude); the modulator switches it.
  rf::ChirpParams sensing_chirp_;  ///< Fixed slope of pure sensing frames.
  rf::ChirpParams longest_chirp_;  ///< Longest alphabet chirp: CSSK frames
                                   ///< reserve their buffers at its size.
  radar::TagDetector uplink_detector_;   ///< Shared across frames — the
                                         ///< detector config is fixed by the
                                         ///< tag's uplink config.
  radar::UplinkDecoder uplink_decoder_;
  std::unique_ptr<ThreadPool> owned_pool_;  ///< When config_.dsp_threads > 1.
  ThreadPool* pool_ = nullptr;              ///< nullptr = sequential.
  UplinkFrameJob seq_job_;  ///< Reused by run_uplink and run_integrated.
  obs::RunReport report_;                   ///< Accumulated run telemetry.
};

/// Resolve a dsp_threads setting (see SystemConfig) to the pool the frame
/// pipeline should use: nullptr for sequential, the shared hardware-sized
/// pool for 0, or a freshly owned pool for an explicit lane count.
ThreadPool* resolve_dsp_pool(std::size_t dsp_threads,
                             std::unique_ptr<ThreadPool>& owned);

/// The tag-node config a LinkSimulator would actually run for @p config:
/// `config.tag.node` with the uplink cadence locked to the radar chirp
/// period, the packet's header/sync lengths wired into the decoder state
/// machine, and the frontend numeric tier matched to `config.precision`.
/// BiScatterNetwork builds lightweight per-tag TagNodes through this instead
/// of carrying a full LinkSimulator per tag.
tag::TagNodeConfig effective_tag_node_config(const SystemConfig& config);

/// Incident multipath set at the tag for a given range (LoS + channel taps),
/// in frontend units — the free-function form of
/// LinkSimulator::incident_paths, bit-identical to it.
std::vector<tag::IncidentPath> incident_paths_for(const SystemConfig& config,
                                                  double range_m);

}  // namespace bis::core

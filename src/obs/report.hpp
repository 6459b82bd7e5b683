#pragma once

/// @file report.hpp
/// Per-run structured telemetry: a `RunReport` accumulates link-level
/// quantities (frames, chirps, sync/CRC/detection outcomes, bit errors,
/// detector SNR) plus per-stage wall times, and dumps them as one JSON object
/// keyed by the system configuration. LinkSimulator, BiScatterNetwork and
/// InventoryEngine each own one and return it from `report()`; LinkServer
/// and SweepRunner merge their simulators' reports.
///
/// A report holds only what its own run did. Process-wide DSP-cache and
/// noise counters are read from their owners instead
/// (`dsp::fft_plan_cache_stats`, `dsp::regrid_plan_cache_stats`,
/// `dsp::window_cache_size`, `rf::awgn_samples_added`).
///
/// This header also holds the subsystem's one stage vocabulary (`Stage`,
/// `stage_name`) and its one stage timer (`StageScope`). Every engine times
/// its stages with a StageScope into `RunReport::stage_s`; the LinkServer
/// passes its ServerStatsCollector too, so the collector's busy time and the
/// merged reports' stage seconds are the same measurement.
///
/// The outcome counters are plain integers updated from the (sequential)
/// run_* methods — always on, effectively free. The stage timers read the
/// clock only while `obs::enabled()`, so the disabled cost is one relaxed
/// load per stage per frame.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace bis::obs {

class ServerStatsCollector;

/// The stages of the paper's frame, in flow order: the radar's uplink
/// pipeline (IF synthesis, range FFT, IF correction — Fig. 7 — slow-time
/// detection, symbol decode), then the tag's downlink receiver.
enum class Stage : std::size_t {
  kSynthesize = 0,
  kRangeFft,
  kIfCorrect,
  kDetect,
  kDecode,
  kTagFrontend,
  kTagDecode,
};
inline constexpr std::size_t kStages = 7;

/// The stage's name in every export: RunReport JSON, the server collector's
/// JSON and Prometheus labels.
const char* stage_name(Stage stage);

struct RunReport {
  std::string config;  ///< Configuration key (core::config_key).

  // Frames and chirps through the pipeline.
  std::uint64_t downlink_frames = 0;
  std::uint64_t uplink_frames = 0;
  std::uint64_t integrated_frames = 0;
  std::uint64_t chirps_processed = 0;  ///< Radar-side chirps (range FFTs).

  // Downlink outcomes.
  std::uint64_t sync_attempts = 0;
  std::uint64_t sync_locks = 0;
  std::uint64_t crc_attempts = 0;
  std::uint64_t crc_passes = 0;
  std::uint64_t downlink_bits = 0;
  std::uint64_t downlink_bit_errors = 0;

  // Uplink / sensing outcomes.
  std::uint64_t detection_attempts = 0;
  std::uint64_t detections = 0;
  std::uint64_t mod_freq_collisions = 0;  ///< Multi-tag sensing: assigned-
                                          ///< frequency pairs closer than the
                                          ///< slow-time FFT resolution,
                                          ///< summed per frame (see
                                          ///< core::count_mod_freq_collisions).
  std::uint64_t uplink_bits = 0;
  std::uint64_t uplink_bit_errors = 0;
  std::uint64_t uplink_bits_dropped = 0;  ///< Integrated-frame reply bits
                                          ///< past the last whole uplink
                                          ///< symbol the frame carries:
                                          ///< neither compared nor counted
                                          ///< as errors. Out of
                                          ///< outcome_key().
  double detector_snr_sum_db = 0.0;  ///< Over detection attempts.
  double last_detector_snr_db = 0.0;

  // Inventory (Gen2-style slotted MAC) outcomes — accumulated per round by
  // core::InventoryEngine. Like mod_freq_collisions these merge additively
  // and stay OUT of outcome_key(): the engine's own round records are the
  // parity-gated outcome, the report is observability.
  std::uint64_t inventory_rounds = 0;
  std::uint64_t inventory_slots = 0;       ///< Slots scheduled across rounds.
  std::uint64_t inventory_singletons = 0;  ///< Slots with one responder.
  std::uint64_t inventory_collisions = 0;  ///< Slots with ≥2 responders.
  std::uint64_t inventory_idles = 0;       ///< Slots nobody answered.
  std::uint64_t inventory_reads = 0;       ///< Tags successfully inventoried.

  /// Accumulated wall time per stage, seconds, indexed by Stage.
  std::array<double, kStages> stage_s{};

  double sync_lock_rate() const;
  double crc_pass_rate() const;
  double downlink_ber() const;
  double uplink_ber() const;
  double mean_detector_snr_db() const;

  /// Fold another report into this one: counters, bit totals, SNR sums, and
  /// stage times add; `last_detector_snr_db` takes the other's; `config`
  /// keeps this report's key when set, else adopts the other's. LinkServer
  /// and SweepRunner use this to aggregate their simulators' reports.
  void merge(const RunReport& other);

  /// One JSON object with every field above plus the derived rates.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Append the same JSON object (compact) to @p out through the
  /// common::JsonWriter string path — no ostringstream. Aggregators dumping
  /// many reports (BiScatterNetwork::report_json over thousands of links)
  /// reserve one string and append every report into it.
  void append_json(std::string& out) const;

  /// Deterministic digest of the *outcome* fields only: frame/bit/detection
  /// counters and the SNR accumulators (%.17g — bit-exact for doubles).
  /// Excludes wall-clock stage times, which legitimately vary run-to-run,
  /// and the observability-only counters (collisions, inventory,
  /// dropped uplink bits). Two runs that processed the same frames
  /// in the same per-link order produce equal keys — the streaming engine's
  /// determinism contract is asserted on this string.
  std::string outcome_key() const;
};

/// RAII stage timer. While telemetry is enabled (latched at construction)
/// it adds its scope's wall time to `report.stage_s[stage]` and, given a
/// collector, records the same nanoseconds as the stage's busy time there.
/// A collector counts the frame either way. Only the radar's uplink stages
/// (the collector's first kServerStages) may be given a collector.
class StageScope {
 public:
  StageScope(Stage stage, RunReport& report,
             ServerStatsCollector* server = nullptr);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  Stage stage_;
  RunReport& report_;
  ServerStatsCollector* server_;
  bool timed_;
  std::uint64_t start_ns_ = 0;
};

}  // namespace bis::obs

#pragma once

/// @file sweep_runner.hpp
/// Sweep-scale Monte-Carlo engine: runs a grid of experiment points
/// (configuration × axis value × repeat) in parallel, one point per thread
/// pool task, with bit-identical results for any thread count.
///
/// Parallelism is deliberately *coarse-grained*: BENCH_dsp.json shows the
/// fine-grained per-frame DSP split saturates quickly (per-chirp FFT tasks
/// are too small to amortize hand-off), while whole sweep points are
/// seconds-long and embarrassingly parallel. Each point therefore runs its
/// LinkSimulator strictly sequentially (dsp_threads = 1) and the pool fans
/// across points.
///
/// Reproducibility contract:
///   - Point i draws from substream i of the master seed via Rng::jump()
///     (2^128-step separation — provably non-overlapping, not merely
///     probabilistically independent like fork()).
///   - Every point is fully independent and writes only its own result
///     slot; results are merged in grid order afterwards. Hence the output
///     is bit-identical for threads = 1, 2, N, or any scheduling order —
///     tests/test_sweep.cpp and bench/bench_sweep.cpp enforce this.
///   - Immutable per-configuration state (the CSSK slope alphabet, whose
///     design cost is independent of seed/range/SNR) is precomputed once
///     per distinct parameter set and shared read-only across points.
///
/// Each point builds its own LinkSimulator on the shared alphabet and runs
/// the sweep form of its measure_* helper on it; the sweep report is those
/// simulators' reports merged in grid order.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "obs/report.hpp"

namespace bis::core {

/// Which measure_* experiment every grid point runs.
enum class SweepMode {
  kDownlinkBer,   ///< measure_downlink_ber (Figs. 12/13/14/17 axes).
  kUplink,        ///< measure_uplink (Fig. 15).
  kLocalization,  ///< measure_localization (Fig. 16).
  kIntegrated,    ///< measure_integrated (ISAC frames).
};

const char* sweep_mode_name(SweepMode mode);

/// One grid point: a full system configuration plus the sweep-axis value it
/// represents (range, SNR, delay-line length, …) for labeling/plotting.
/// `config.seed` is overridden by the runner (substream of the master
/// seed); repeats at the same axis value are separate points.
struct SweepPoint {
  SystemConfig config;
  double axis = 0.0;
};

/// Per-mode workload knobs forwarded to the measure_* helpers.
struct SweepWorkload {
  std::size_t min_bits = 2000;      ///< kDownlinkBer.
  std::size_t payload_bits = 120;   ///< kDownlinkBer / kIntegrated.
  std::size_t frames = 10;          ///< kUplink / kLocalization / kIntegrated.
  std::size_t bits_per_frame = 8;   ///< kUplink.
  bool downlink_active = false;     ///< kUplink / kLocalization.
  std::size_t uplink_bits = 4;      ///< kIntegrated.
};

struct SweepOptions {
  SweepMode mode = SweepMode::kDownlinkBer;
  std::uint64_t master_seed = 1;  ///< Root of every point's substream.
  std::size_t threads = 0;        ///< Pool across points: 0 = shared
                                  ///< hardware-sized pool, 1 = sequential,
                                  ///< k = private k-lane pool. Results are
                                  ///< bit-identical for every setting.
  SweepWorkload workload;
};

/// Results of one grid point; only the block matching the sweep mode is
/// populated (kIntegrated fills downlink and uplink).
struct ExperimentMetrics {
  double axis = 0.0;
  std::uint64_t point_seed = 0;  ///< Derived SystemConfig::seed actually used.
  std::string config;            ///< config_key of the derived config.
  BerMeasurement downlink;
  UplinkMeasurement uplink;
  LocalizationMeasurement localization;
};

struct SweepResult {
  SweepMode mode = SweepMode::kDownlinkBer;
  std::uint64_t master_seed = 0;
  std::size_t threads_used = 1;
  std::vector<ExperimentMetrics> points;  ///< Grid order, regardless of
                                          ///< scheduling.
  obs::RunReport report;  ///< Sweep-level telemetry: every point's
                          ///< LinkSimulator report, merged in grid order.
                          ///< Process-wide cache and noise counters are not
                          ///< in it; read them from dsp::fft_plan_cache_stats,
                          ///< dsp::regrid_plan_cache_stats and
                          ///< rf::awgn_samples_added around run().
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options);

  /// Run every grid point and merge results in grid order. Thread-safe to
  /// call concurrently from multiple runners (all shared state — plan
  /// caches, metrics — is internally synchronized).
  SweepResult run(std::span<const SweepPoint> grid) const;

  const SweepOptions& options() const { return options_; }

 private:
  SweepOptions options_;
};

/// Grid builder: @p repeats points per range value (axis = range), base
/// config otherwise unchanged. Repeats land on distinct substreams.
std::vector<SweepPoint> range_sweep_grid(const SystemConfig& base,
                                         std::span<const double> ranges_m,
                                         std::size_t repeats = 1);

/// Deterministic JSON for CI diffing: mode, master seed, and per-point
/// metrics (full 17-digit precision). Deliberately excludes the telemetry
/// report — its stage times are wall clock, while everything emitted here is
/// bit-identical across thread counts.
std::string sweep_to_json(const SweepResult& result);

}  // namespace bis::core

#pragma once

/// @file server_stats.hpp
/// Per-stage telemetry for the LinkServer (core/link_server.hpp). Lanes on
/// many threads record each frame's stage busy time into relaxed atomics
/// through obs::StageScope (obs/report.hpp) — the same scope that fills the
/// link's RunReport::stage_s, so the two always agree. The collector
/// snapshots them into a plain struct for reports and BENCH_server.json.
/// The LinkServer runs a frame's stages back to back on one lane, so the
/// queue-wait it records is always zero.
///
/// Cost model is StageScope's: frame counts are always on (one relaxed RMW
/// each); the clock is read only while obs::enabled() — with telemetry off
/// a stage record is one relaxed fetch_add and no clock reads.

#include <array>
#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "obs/latency_histogram.hpp"
#include "obs/report.hpp"

namespace bis::obs {

/// The server records the radar's uplink stages: the first kServerStages of
/// obs::Stage, named by obs::stage_name.
using ServerStage = Stage;
inline constexpr std::size_t kServerStages = 5;

/// Snapshot of one stage's accumulated activity.
struct StageQueueStats {
  std::uint64_t frames = 0;         ///< Jobs this stage completed.
  std::uint64_t busy_ns = 0;        ///< Total time spent executing the stage.
  std::uint64_t queue_wait_ns = 0;  ///< Total time jobs sat queued before it.

  double mean_busy_us() const;
  double mean_queue_wait_us() const;
};

/// Lock-free accumulator shared by every worker of one LinkServer run.
/// Besides the always-on totals, every record feeds fixed-memory log-bucket
/// latency histograms (queue-wait and service time per stage, plus
/// end-to-end frame latency), so a live exporter can publish
/// p50/p90/p99/p99.9 without sampling bias. Histogram recording shares the
/// obs::enabled() gate — telemetry off keeps the two-fetch_add cost.
class ServerStatsCollector {
 public:
  /// Record one completed job: @p wait_ns queued + @p busy_ns executing.
  /// Pass zeros when telemetry is disabled (the frame still counts).
  void record(ServerStage stage, std::uint64_t wait_ns, std::uint64_t busy_ns);

  /// Record one frame's end-to-end latency: payload draw → fold done.
  void record_e2e(std::uint64_t ns) { e2e_ns_.record(ns); }

  StageQueueStats snapshot(ServerStage stage) const;

  /// Latency distributions (nanosecond samples; empty with telemetry off).
  const LatencyHistogram& wait_latency(ServerStage stage) const {
    return wait_ns_[static_cast<std::size_t>(stage)];
  }
  const LatencyHistogram& busy_latency(ServerStage stage) const {
    return busy_ns_[static_cast<std::size_t>(stage)];
  }
  const LatencyHistogram& e2e_latency() const { return e2e_ns_; }

  void reset();

  /// One JSON object: {"synthesize": {…, "busy_us": {quantiles}, "wait_us":
  /// {quantiles}}, …, "e2e_us": {quantiles}}.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Prometheus text exposition with {stage="…"} labels.
  void write_prometheus(std::ostream& os) const;

 private:
  struct Cell {
    std::atomic<std::uint64_t> frames{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> queue_wait_ns{0};
  };
  std::array<Cell, kServerStages> cells_;
  std::array<LatencyHistogram, kServerStages> wait_ns_;
  std::array<LatencyHistogram, kServerStages> busy_ns_;
  LatencyHistogram e2e_ns_;
};

}  // namespace bis::obs

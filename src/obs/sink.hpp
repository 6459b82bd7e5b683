#pragma once

/// @file sink.hpp
/// Live telemetry exporter: a background sampler thread that snapshots the
/// process-wide metric Registry (plus any attached ServerStatsCollector) at
/// a configurable cadence and streams the snapshots out in two formats:
///   - JSONL time-series — one single-line JSON object per sample appended
///     to a file, for offline plotting of a run's trajectory;
///   - Prometheus text exposition (format 0.0.4) — rewritten to a file
///     and/or served from a minimal embedded HTTP endpoint
///     (`curl localhost:<port>/metrics`), so a running link_server or sweep
///     can be watched live by standard tooling.
///
/// The sink only *reads* metrics (relaxed atomic loads); the hot paths it
/// observes never block on it. Lifecycle: construct → samples flow → stop()
/// (or destruction) takes one final sample and joins the threads. The
/// process-wide instance is created once via ensure_global() — before the
/// LinkServer it should watch is built — and flushed at exit.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/server_stats.hpp"

namespace bis::obs {

struct TelemetrySinkOptions {
  std::string jsonl_path;        ///< JSONL time-series path ("" = off).
  std::string prom_path;         ///< Prometheus text snapshot path ("" = off).
  std::uint32_t interval_ms = 500;  ///< Sampling cadence.
  int tcp_port = -1;             ///< Embedded HTTP endpoint: -1 = off,
                                 ///< 0 = ephemeral port (see port()).

  /// True when any export is configured.
  bool any() const {
    return !jsonl_path.empty() || !prom_path.empty() || tcp_port >= 0;
  }
};

class TelemetrySink {
 public:
  /// Starts the sampler (and, when configured, the TCP listener)
  /// immediately. Enables the process-wide telemetry switch so there is
  /// something to sample.
  explicit TelemetrySink(TelemetrySinkOptions options);
  ~TelemetrySink();

  TelemetrySink(const TelemetrySink&) = delete;
  TelemetrySink& operator=(const TelemetrySink&) = delete;

  /// Include @p stats in every subsequent snapshot (per-stage frame counts
  /// and latency quantiles). The pointer must stay valid
  /// until detach_server_stats(). Attaching more than one collector is
  /// allowed; snapshots list them in attach order.
  void attach_server_stats(const ServerStatsCollector* stats);
  void detach_server_stats(const ServerStatsCollector* stats);

  /// Take one snapshot synchronously (also what the sampler thread calls).
  void sample_now();

  /// Final sample, join the sampler/listener, close the files. Idempotent.
  void stop();

  /// Bound TCP port (useful with tcp_port = 0), or -1 when no endpoint.
  int port() const { return port_; }

  /// Samples taken so far (tests poll this to wait for the first line).
  std::uint64_t samples() const {
    return samples_.load(std::memory_order_relaxed);
  }

  const TelemetrySinkOptions& options() const { return options_; }

  /// Current Prometheus exposition text (registry + attached collectors) —
  /// what the TCP endpoint serves and prom_path receives.
  std::string build_prometheus() const;

  /// One single-line JSON snapshot — what jsonl_path receives per sample.
  std::string build_jsonl_line() const;

  /// Process-wide sink: the first call creates it (registering an atexit
  /// stop), later calls return the existing instance unchanged — so the
  /// first caller's export configuration wins. Returns nullptr only if
  /// @p options has no export configured and no sink exists yet.
  static TelemetrySink* ensure_global(const TelemetrySinkOptions& options);
  static TelemetrySink* global();

 private:
  void sampler_main();
  void listener_main();
  void write_prom_snapshot();

  TelemetrySinkOptions options_;
  mutable std::mutex mu_;  ///< Guards collectors_ and jsonl_ writes.
  std::vector<const ServerStatsCollector*> collectors_;
  std::ofstream jsonl_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> samples_{0};
  std::atomic<bool> stop_{false};
  bool stopped_ = false;  ///< stop() ran to completion (guarded by mu_).
  int listen_fd_ = -1;
  int port_ = -1;
  std::thread sampler_;
  std::thread listener_;
};

}  // namespace bis::obs

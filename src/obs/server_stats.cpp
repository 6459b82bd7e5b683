#include "obs/server_stats.hpp"

#include <ostream>
#include <sstream>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {

double StageQueueStats::mean_busy_us() const {
  return frames == 0 ? 0.0
                     : static_cast<double>(busy_ns) / 1e3 /
                           static_cast<double>(frames);
}

double StageQueueStats::mean_queue_wait_us() const {
  return frames == 0 ? 0.0
                     : static_cast<double>(queue_wait_ns) / 1e3 /
                           static_cast<double>(frames);
}

void ServerStatsCollector::record(ServerStage stage, std::uint64_t wait_ns,
                                  std::uint64_t busy_ns) {
  const auto s = static_cast<std::size_t>(stage);
  Cell& c = cells_[s];
  c.frames.fetch_add(1, std::memory_order_relaxed);
  if (wait_ns != 0) c.queue_wait_ns.fetch_add(wait_ns, std::memory_order_relaxed);
  if (busy_ns != 0) c.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
  // With telemetry off the stamps are zero and record() is a relaxed load +
  // branch; recording the zeros would only pollute the distribution.
  if (busy_ns != 0) {
    wait_ns_[s].record(wait_ns);
    busy_ns_[s].record(busy_ns);
  }
}

StageQueueStats ServerStatsCollector::snapshot(ServerStage stage) const {
  const Cell& c = cells_[static_cast<std::size_t>(stage)];
  StageQueueStats out;
  out.frames = c.frames.load(std::memory_order_relaxed);
  out.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
  out.queue_wait_ns = c.queue_wait_ns.load(std::memory_order_relaxed);
  return out;
}

void ServerStatsCollector::reset() {
  for (Cell& c : cells_) {
    c.frames.store(0, std::memory_order_relaxed);
    c.busy_ns.store(0, std::memory_order_relaxed);
    c.queue_wait_ns.store(0, std::memory_order_relaxed);
  }
  for (auto& h : wait_ns_) h.reset();
  for (auto& h : busy_ns_) h.reset();
  e2e_ns_.reset();
}

namespace {

/// Quantile block in microseconds from a nanosecond-sample histogram.
void write_us_quantiles(std::ostream& os, const LatencyHistogram& h) {
  os << "{\"count\": " << h.count()
     << ", \"p50\": " << json_number(h.p50() / 1e3)
     << ", \"p90\": " << json_number(h.p90() / 1e3)
     << ", \"p99\": " << json_number(h.p99() / 1e3)
     << ", \"p999\": " << json_number(h.p999() / 1e3) << "}";
}

}  // namespace

void ServerStatsCollector::write_json(std::ostream& os) const {
  os << "{";
  for (std::size_t i = 0; i < kServerStages; ++i) {
    const auto stage = static_cast<ServerStage>(i);
    const StageQueueStats s = snapshot(stage);
    if (i != 0) os << ", ";
    os << "\"" << stage_name(stage) << "\": {\"frames\": " << s.frames
       << ", \"busy_ns\": " << s.busy_ns
       << ", \"queue_wait_ns\": " << s.queue_wait_ns << ", \"busy_us\": ";
    write_us_quantiles(os, busy_ns_[i]);
    os << ", \"wait_us\": ";
    write_us_quantiles(os, wait_ns_[i]);
    os << "}";
  }
  os << ", \"e2e_us\": ";
  write_us_quantiles(os, e2e_ns_);
  os << "}";
}

void ServerStatsCollector::write_prometheus(std::ostream& os) const {
  os << "# TYPE bis_server_stage_frames counter\n";
  for (std::size_t i = 0; i < kServerStages; ++i)
    os << "bis_server_stage_frames{stage=\""
       << stage_name(static_cast<ServerStage>(i)) << "\"} "
       << snapshot(static_cast<ServerStage>(i)).frames << "\n";
  const auto summary = [&os](const char* metric, const char* stage,
                             const LatencyHistogram& h) {
    static constexpr std::pair<const char*, double> kQ[] = {
        {"0.5", 0.5}, {"0.9", 0.9}, {"0.99", 0.99}, {"0.999", 0.999}};
    for (const auto& [label, q] : kQ) {
      os << metric;
      if (stage != nullptr) os << "{stage=\"" << stage << "\",quantile=\""
                               << label << "\"} ";
      else os << "{quantile=\"" << label << "\"} ";
      os << prometheus_number(h.quantile(q) / 1e3) << "\n";
    }
    os << metric << "_count";
    if (stage != nullptr) os << "{stage=\"" << stage << "\"}";
    os << " " << h.count() << "\n";
  };
  os << "# TYPE bis_server_stage_busy_us summary\n";
  for (std::size_t i = 0; i < kServerStages; ++i)
    summary("bis_server_stage_busy_us",
            stage_name(static_cast<ServerStage>(i)), busy_ns_[i]);
  os << "# TYPE bis_server_stage_wait_us summary\n";
  for (std::size_t i = 0; i < kServerStages; ++i)
    summary("bis_server_stage_wait_us",
            stage_name(static_cast<ServerStage>(i)), wait_ns_[i]);
  os << "# TYPE bis_server_e2e_us summary\n";
  summary("bis_server_e2e_us", nullptr, e2e_ns_);
}

std::string ServerStatsCollector::to_json() const {
  std::ostringstream oss;
  write_json(oss);
  return oss.str();
}

}  // namespace bis::obs

// RunReport::merge semantics — including the concurrent-producer pattern the
// streaming engine and sweep runner rely on: worker threads accumulate
// private reports and merge them into one aggregate under a lock.

#include <gtest/gtest.h>

#include <mutex>
#include <thread>
#include <vector>

#include "obs/report.hpp"

namespace bis::obs {
namespace {

RunReport make_report(std::uint64_t k) {
  RunReport r;
  r.uplink_frames = k;
  r.chirps_processed = 32 * k;
  r.detection_attempts = k;
  r.detections = k / 2;
  r.uplink_bits = 8 * k;
  r.uplink_bit_errors = k % 3;
  r.uplink_bits_dropped = 2 * k;
  r.detector_snr_sum_db = 0.125 * static_cast<double>(k);  // exact in binary
  r.last_detector_snr_db = static_cast<double>(k);
  r.inventory_rounds = k;
  r.inventory_slots = 16 * k;
  r.inventory_singletons = 4 * k;
  r.inventory_collisions = 2 * k;
  r.inventory_idles = 10 * k;
  r.inventory_reads = 5 * k;
  r.stage_s[static_cast<std::size_t>(Stage::kDetect)] = 0.25 * static_cast<double>(k);
  return r;
}

TEST(ReportMerge, CountersAdd) {
  RunReport total;
  total.config = "agg";
  total.merge(make_report(3));
  total.merge(make_report(5));
  EXPECT_EQ(total.config, "agg");  // an existing key is kept
  EXPECT_EQ(total.uplink_frames, 8u);
  EXPECT_EQ(total.chirps_processed, 256u);
  EXPECT_EQ(total.detections, 3u);
  EXPECT_EQ(total.uplink_bits, 64u);
  EXPECT_EQ(total.uplink_bit_errors, 2u);  // 3%3 + 5%3
  EXPECT_EQ(total.uplink_bits_dropped, 16u);
  EXPECT_DOUBLE_EQ(total.detector_snr_sum_db, 1.0);
  EXPECT_DOUBLE_EQ(total.last_detector_snr_db, 5.0);  // latest merged wins
  EXPECT_EQ(total.inventory_rounds, 8u);
  EXPECT_EQ(total.inventory_slots, 128u);
  EXPECT_EQ(total.inventory_singletons, 32u);
  EXPECT_EQ(total.inventory_collisions, 16u);
  EXPECT_EQ(total.inventory_idles, 80u);
  EXPECT_EQ(total.inventory_reads, 40u);
  EXPECT_DOUBLE_EQ(total.stage_s[static_cast<std::size_t>(Stage::kDetect)], 2.0);
}

TEST(ReportMerge, OutcomeKeyIgnoresTimingAndObservability) {
  RunReport a = make_report(7);
  RunReport b = make_report(7);
  b.stage_s[static_cast<std::size_t>(Stage::kDetect)] += 123.0;  // wall time varies
  // Inventory counters are observability, not the parity-gated outcome (the
  // engine's round records are) — they stay out of the key by design.
  b.inventory_reads += 17;
  b.uplink_bits_dropped += 3;  // dropped reply bits are observability too
  EXPECT_EQ(a.outcome_key(), b.outcome_key());
  b.uplink_bit_errors += 1;    // ...but outcomes must not
  EXPECT_NE(a.outcome_key(), b.outcome_key());
}

TEST(ReportMerge, ConcurrentProducersAggregateExactly) {
  // The streaming pattern: each worker folds frames into its own report,
  // then merges into the shared aggregate under a mutex. Integer outcome
  // counters must total exactly whatever the producers folded, regardless
  // of thread interleaving.
  const std::size_t kThreads = 8;
  const std::uint64_t kReportsPerThread = 200;

  RunReport total;
  std::mutex mu;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RunReport local;
      for (std::uint64_t k = 0; k < kReportsPerThread; ++k)
        local.merge(make_report(t + 1));
      const std::lock_guard<std::mutex> lock(mu);
      total.merge(local);
    });
  }
  for (auto& th : threads) th.join();

  std::uint64_t frames = 0;
  std::uint64_t bits = 0;
  double snr = 0.0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    frames += kReportsPerThread * (t + 1);
    bits += kReportsPerThread * 8 * (t + 1);
    snr += static_cast<double>(kReportsPerThread) * 0.125 *
           static_cast<double>(t + 1);
  }
  EXPECT_EQ(total.uplink_frames, frames);
  EXPECT_EQ(total.uplink_bits, bits);
  // 0.125·k sums are exact in binary floating point at these magnitudes, so
  // even the double accumulator must land exactly.
  EXPECT_DOUBLE_EQ(total.detector_snr_sum_db, snr);
}

}  // namespace
}  // namespace bis::obs

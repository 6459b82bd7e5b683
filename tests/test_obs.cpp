// The bis::obs observability subsystem: metric registry math, trace-span
// nesting and Chrome-trace export, counter correctness under concurrent
// parallel_for updates, and the LinkSimulator run report produced by one
// telemetry-enabled integrated frame. Every test restores the process-wide
// telemetry switch so the rest of the suite is unaffected.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/link_simulator.hpp"
#include "obs/obs.hpp"
#include "phy/bits.hpp"

namespace bis::obs {
namespace {

/// Enables telemetry with a clean trace buffer and registry; restores the
/// disabled state on exit so other suites keep their zero-overhead path.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = enabled();
    set_enabled(true);
    clear_trace();
    Registry::instance().reset();
  }
  void TearDown() override {
    clear_trace();
    Registry::instance().reset();
    set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = false;
};

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST_F(ObsTest, CounterAccumulatesAndResets) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST_F(ObsTest, CounterIgnoresUpdatesWhileDisabled) {
  Counter c;
  set_enabled(false);
  c.add(100);
  set_enabled(true);
  EXPECT_EQ(c.value(), 0u);
  c.add(7);
  EXPECT_EQ(c.value(), 7u);
}

TEST_F(ObsTest, CounterExactUnderConcurrentParallelFor) {
  // Sharded updates from every pool lane must lose nothing: 8 lanes x
  // 20000 items x 3 increments each.
  Counter& c = Registry::instance().counter("bis.test.concurrent_adds");
  ThreadPool pool(8);
  constexpr std::size_t kItems = 20000;
  pool.parallel_for(0, kItems, [&](std::size_t) {
    c.add();
    c.add(2);
  });
  EXPECT_EQ(c.value(), kItems * 3);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  Counter& a = Registry::instance().counter("bis.test.stable");
  Counter& b = Registry::instance().counter("bis.test.stable");
  EXPECT_EQ(&a, &b);
  a.add(5);
  EXPECT_EQ(b.value(), 5u);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST_F(ObsTest, HistogramBucketsMatchReferenceCounting) {
  Histogram h({1.0, 2.0, 4.0, 8.0});
  const std::vector<double> samples = {0.5, 1.0, 1.5, 3.0, 3.9,
                                       7.0, 8.0, 9.0, 100.0};
  for (double s : samples) h.observe(s);

  // Reference: bucket i counts samples <= bounds[i] (and above the previous
  // bound); the final bucket is the +inf overflow.
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);  // 0.5, 1.0
  EXPECT_EQ(counts[1], 1u);  // 1.5
  EXPECT_EQ(counts[2], 2u);  // 3.0, 3.9
  EXPECT_EQ(counts[3], 2u);  // 7.0, 8.0
  EXPECT_EQ(counts[4], 2u);  // 9.0, 100.0 overflow
  EXPECT_EQ(h.count(), samples.size());

  double sum = 0.0;
  for (double s : samples) sum += s;
  EXPECT_DOUBLE_EQ(h.sum(), sum);
  EXPECT_DOUBLE_EQ(h.mean(), sum / static_cast<double>(samples.size()));
}

TEST_F(ObsTest, HistogramQuantileInterpolatesWithinBucket) {
  // 100 samples uniformly covering (0, 10]: the Prometheus-style linear
  // interpolation should land within one bucket width of the exact value.
  Histogram h({2.0, 4.0, 6.0, 8.0, 10.0});
  for (int i = 1; i <= 100; ++i) h.observe(0.1 * i);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 2.0);
  EXPECT_NEAR(h.quantile(0.95), 9.5, 2.0);
  // Monotone in q.
  EXPECT_LE(h.quantile(0.25), h.quantile(0.5));
  EXPECT_LE(h.quantile(0.5), h.quantile(0.9));
  // Empty histogram reports 0; all-overflow reports the last finite bound.
  Histogram empty({1.0});
  EXPECT_DOUBLE_EQ(empty.quantile(0.5), 0.0);
  Histogram over({1.0, 2.0});
  over.observe(50.0);
  EXPECT_DOUBLE_EQ(over.quantile(0.99), 2.0);
}

TEST_F(ObsTest, ExponentialBoundsAreLogSpaced) {
  const auto b = Histogram::exponential_bounds(1.0, 1e6, 25);
  ASSERT_EQ(b.size(), 25u);
  EXPECT_DOUBLE_EQ(b.front(), 1.0);
  EXPECT_NEAR(b.back(), 1e6, 1.0);
  for (std::size_t i = 1; i < b.size(); ++i) EXPECT_GT(b[i], b[i - 1]);
  // Constant ratio between consecutive bounds.
  const double r0 = b[1] / b[0];
  for (std::size_t i = 2; i < b.size(); ++i)
    EXPECT_NEAR(b[i] / b[i - 1], r0, 1e-9);
}

TEST_F(ObsTest, RegistryJsonContainsEveryMetric) {
  auto& reg = Registry::instance();
  reg.counter("bis.test.count").add(3);
  reg.gauge("bis.test.gauge").set(2.5);
  reg.histogram("bis.test.hist", {1.0, 10.0}).observe(0.5);
  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"bis.test.count\": 3"), std::string::npos);
  EXPECT_NE(json.find("bis.test.gauge"), std::string::npos);
  EXPECT_NE(json.find("bis.test.hist"), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST_F(ObsTest, SpanNestingRecordsDepthAndContainment) {
  {
    BIS_TRACE_SPAN("outer");
    {
      BIS_TRACE_SPAN("middle");
      { BIS_TRACE_SPAN("inner"); }
    }
    { BIS_TRACE_SPAN("sibling"); }
  }
  const auto events = collect_trace();
  ASSERT_EQ(events.size(), 4u);

  // Sorted by (tid, start, longest-first): parent precedes children.
  EXPECT_STREQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0u);
  EXPECT_STREQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1u);
  EXPECT_STREQ(events[2].name, "inner");
  EXPECT_EQ(events[2].depth, 2u);
  EXPECT_STREQ(events[3].name, "sibling");
  EXPECT_EQ(events[3].depth, 1u);

  // Every child interval is contained in its parent's.
  const auto& outer = events[0];
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].start_ns, outer.start_ns);
    EXPECT_LE(events[i].start_ns + events[i].dur_ns,
              outer.start_ns + outer.dur_ns);
  }
  EXPECT_EQ(trace_dropped_events(), 0u);
}

TEST_F(ObsTest, DisabledSpansRecordNothing) {
  set_enabled(false);
  { BIS_TRACE_SPAN("ghost"); }
  set_enabled(true);
  EXPECT_TRUE(collect_trace().empty());
}

TEST_F(ObsTest, ChromeTraceExportIsWellFormed) {
  {
    BIS_TRACE_SPAN("alpha");
    { BIS_TRACE_SPAN("beta"); }
  }
  std::ostringstream oss;
  write_chrome_trace(oss);
  const std::string json = oss.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"beta\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  // "alpha" opened first: it must appear before "beta" in the export so
  // chrome://tracing reconstructs the nesting.
  EXPECT_LT(json.find("\"name\": \"alpha\""), json.find("\"name\": \"beta\""));
  // Balanced braces/brackets — cheap structural sanity without a parser.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST_F(ObsTest, TraceSummaryAggregatesPerName) {
  for (int i = 0; i < 3; ++i) {
    BIS_TRACE_SPAN("repeat");
  }
  const auto summary = trace_summary();
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_EQ(summary[0].name, "repeat");
  EXPECT_EQ(summary[0].count, 3u);
  EXPECT_GE(summary[0].max_ms, 0.0);
  EXPECT_LE(summary[0].mean_ms, summary[0].total_ms + 1e-12);
}

TEST_F(ObsTest, SpansFromPoolThreadsCarryDistinctTids) {
  ThreadPool pool(4);
  pool.parallel_for(0, 64, [&](std::size_t) {
    BIS_TRACE_SPAN("lane");
  });
  // parallel_for records its own span; keep only the per-item ones.
  auto events = collect_trace();
  std::erase_if(events, [](const TraceEvent& e) {
    return std::string_view(e.name) != "lane";
  });
  EXPECT_EQ(events.size(), 64u);
  // Sorted by tid first.
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].tid, events[i - 1].tid);
}

// ---------------------------------------------------------------------------
// Run report: one telemetry-enabled integrated frame
// ---------------------------------------------------------------------------

TEST_F(ObsTest, IntegratedFrameProducesTraceAndRunReport) {
  core::SystemConfig cfg;
  cfg.tag_range_m = 2.0;
  cfg.seed = 42;
  // Short uplink symbols so the downlink-sized frame still carries at least
  // one decodable uplink symbol (same sizing as the LinkSimulator suite).
  cfg.tag.node.uplink.chirps_per_symbol = 32;
  core::LinkSimulator sim(cfg);
  sim.calibrate_tag();
  clear_trace();  // keep only the frame below in the trace

  Rng rng(2);
  const auto downlink = rng.bits(100);
  const phy::Bits uplink = {1, 0, 1, 1};
  const auto r = sim.run_integrated(downlink, uplink);
  EXPECT_TRUE(r.uplink.detection.found);

  // The acceptance-criteria spans all appear in the Chrome trace.
  std::ostringstream oss;
  write_chrome_trace(oss);
  const std::string trace = oss.str();
  for (const char* span : {"core.run_integrated", "radar.if_synthesis",
                           "radar.range_fft", "radar.if_correction",
                           "radar.detect", "radar.uplink_decode",
                           "tag.frontend_frame", "tag.decode_stream"}) {
    EXPECT_NE(trace.find(span), std::string::npos) << "missing span " << span;
  }

  const RunReport report = sim.report();
  EXPECT_EQ(report.integrated_frames, 1u);
  EXPECT_GT(report.chirps_processed, 0u);
  EXPECT_EQ(report.detection_attempts, 1u);
  EXPECT_EQ(report.detections, 1u);
  EXPECT_GT(report.last_detector_snr_db, 0.0);
  EXPECT_GT(report.stage_s[static_cast<std::size_t>(Stage::kRangeFft)], 0.0);
  EXPECT_GT(report.stage_s[static_cast<std::size_t>(Stage::kIfCorrect)], 0.0);
  EXPECT_EQ(report.config, core::config_key(cfg));

  const std::string json = sim.report_json();
  EXPECT_NE(json.find("\"detector_snr_db\""), std::string::npos);
  EXPECT_NE(json.find("\"stage_seconds\""), std::string::npos);
  for (std::size_t i = 0; i < kStages; ++i) {
    const std::string key =
        std::string("\"") + stage_name(static_cast<Stage>(i)) + "\":";
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
  EXPECT_NE(json.find(core::config_key(cfg)), std::string::npos);

  // Reset zeroes the accumulators.
  sim.reset_report();
  const RunReport cleared = sim.report();
  EXPECT_EQ(cleared.integrated_frames, 0u);
}

TEST_F(ObsTest, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
}

}  // namespace
}  // namespace bis::obs

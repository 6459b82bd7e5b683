// Tests of the benchmark's own helpers: the tail-percentile rule, digest
// stability across lane counts, the host line, and the JSON result line.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;  // descending, so the helpers must sort
}

TEST(Percentile, MedianInterpolates) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile(one_to(5), 1.0), 5.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, P99WhenTenSamplesLieBeyondIt) {
  const Tail t = tail_quantile(one_to(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.count, 1000u);
}

TEST(Percentile, FallsBackToHighestRankWithTenBeyond) {
  const Tail t = tail_quantile(one_to(500));
  EXPECT_DOUBLE_EQ(t.q, 0.98);
  EXPECT_DOUBLE_EQ(t.value, 490.0);
  EXPECT_EQ(t.beyond, 10u);

  const Tail just_enough = tail_quantile(one_to(40));
  EXPECT_DOUBLE_EQ(just_enough.q, 0.75);
  EXPECT_EQ(just_enough.beyond, 10u);
}

TEST(Percentile, ShortRunsReportTheMedianRank) {
  const Tail ten = tail_quantile(one_to(10));
  EXPECT_DOUBLE_EQ(ten.q, 0.6);
  EXPECT_DOUBLE_EQ(ten.value, 6.0);
  EXPECT_EQ(ten.beyond, 4u);
  EXPECT_GE(ten.value, median(one_to(10)));
  // The reported rank moves smoothly with the sample count: no jump from
  // the maximum to the minimum once an eleventh sample arrives.
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(11)).value, 6.0);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(20)).value, 11.0);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(21)).value, 11.0);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(22)).value, 12.0);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(30)).value, 20.0);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(1)).value, 1.0);
  EXPECT_DOUBLE_EQ(tail_quantile({}).value, 0.0);
}

TEST(DigestTest, EncodingIsUnambiguous) {
  Digest a, b;
  a.str("ab");
  a.str("c");
  b.str("a");
  b.str("bc");
  EXPECT_NE(a.hex(), b.hex());

  Digest zero, negative_zero;
  zero.f64(0.0);
  negative_zero.f64(-0.0);
  EXPECT_NE(zero.hex(), negative_zero.hex());
  EXPECT_EQ(zero.hex().size(), 16u);
}

TEST(DigestTest, LinkServerIsIdenticalAtOneAndFourLanes) {
  constexpr std::size_t kLinks = 3, kFrames = 3;
  std::string digests[2];
  const std::size_t lanes[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    bis::core::LinkServer server(link_server_config(7, kLinks, lanes[i]));
    server.run(1);
    server.run(kFrames - 1);
    digests[i] = link_server_digest(server);
  }
  EXPECT_EQ(digests[0], digests[1]);
  const auto reference =
      bis::core::run_links_sequential(link_server_config(7, kLinks, 1), kFrames);
  EXPECT_EQ(digests[0], link_results_digest(reference));
  const auto other_seed =
      bis::core::run_links_sequential(link_server_config(8, kLinks, 1), kFrames);
  EXPECT_NE(digests[0], link_results_digest(other_seed));
}

TEST(DigestTest, InventoryIsIdenticalAtOneAndFourLanes) {
  std::string digests[2];
  const std::size_t lanes[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    bis::core::InventoryEngine engine(inventory_population(7, 200, lanes[i]),
                                      bis::core::InventoryConfig{});
    engine.run_round();
    engine.reset();
    engine.run_until_drained();
    digests[i] = inventory_digest(engine);
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(DigestTest, SweepIsIdenticalAtOneAndFourLanes) {
  std::vector<bis::core::SweepPoint> grid = downlink_sweep_grid();
  grid.resize(4);
  std::string digests[2];
  const std::size_t lanes[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    const bis::core::SweepRunner runner(downlink_sweep_options(7, lanes[i], 240));
    digests[i] = sweep_digest(runner.run(grid));
  }
  EXPECT_EQ(digests[0], digests[1]);
}

TEST(ResultJson, RoundTripsEveryDigit) {
  const std::vector<Metric> metrics = {{"latency_p50_ms", 2.4012345678901234, "ms"},
                                       {"setup_s", 0.1 + 0.2, "s"},
                                       {"error_rate", 1e-300, "ratio"}};
  const std::string line = result_json(true, 1234, 5, metrics);
  const bis::JsonParseResult parsed = bis::json_parse(line);
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  const bis::JsonValue& v = parsed.value;
  ASSERT_EQ(v.members().size(), 4u);
  EXPECT_TRUE(v.bool_or("correct", false));
  EXPECT_EQ(v.number_or("attempted", 0), 1234.0);
  EXPECT_EQ(v.number_or("failed", 0), 5.0);
  const bis::JsonValue* m = v.find("metrics");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->members().size(), metrics.size());
  for (const Metric& want : metrics) {
    const bis::JsonValue* got = m->find(want.name);
    ASSERT_NE(got, nullptr) << want.name;
    EXPECT_EQ(got->number_or("value", NAN), want.value) << want.name;
    EXPECT_EQ(got->string_or("unit", ""), want.unit);
  }
}

TEST(ResultJson, HostFingerprintParses) {
  const double probe = host_probe_ms(2);
  EXPECT_GT(probe, 0.0);
  const bis::JsonParseResult parsed =
      bis::json_parse(host_fingerprint_json("abc\"1", {probe, 2.5}));
  ASSERT_TRUE(parsed.ok()) << parsed.error;
  EXPECT_EQ(parsed.value.string_or("git_commit", ""), "abc\"1");
  EXPECT_EQ(parsed.value.string_or("precision", ""), "double_strict");
  EXPECT_GT(parsed.value.number_or("nproc", 0), 0.0);
  const bis::JsonValue* probes = parsed.value.find("probe_ms");
  ASSERT_NE(probes, nullptr);
  ASSERT_TRUE(probes->is_array());
  ASSERT_EQ(probes->as_array().size(), 2u);
  EXPECT_EQ(probes->as_array()[1].as_number(), 2.5);
}

}  // namespace
}  // namespace perfbench

// Golden detector outputs: TagDetector::detect, detect_many and detect_slots
// pinned to recorded bit patterns in double_strict. The other detector
// parity tests compare one entry point against another over the same
// scoring pass, so a change inside that shared pass moves both sides at
// once; these pins catch it. Each scene runs inline and on a 4-thread pool
// against the same values (a detector result is thread-count invariant).
//
// The values were recorded with x86-64 glibc and GCC; a different libm may
// round the window/twiddle/log10 evaluations differently. On a mismatch the
// failure message prints every actual row in the table's initializer format.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/inventory.hpp"
#include "core/network.hpp"
#include "core/radar_front_end.hpp"
#include "phy/uplink.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/range_align.hpp"
#include "radar/range_processor.hpp"
#include "radar/tag_detector.hpp"
#include "tag/gen2_state.hpp"

namespace bis::radar {
namespace {

constexpr double kFs = 2e6;
constexpr double kPeriod = 120e-6;

struct Golden {
  bool found;
  std::size_t grid_bin;
  std::uint64_t range_m;
  std::uint64_t mod_power;
  std::uint64_t snr_db;
  std::uint64_t signature_score;
};

std::string format_row(const TagDetection& d) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "      {%s, %zu, 0x%016llxULL, 0x%016llxULL,\n"
                "       0x%016llxULL, 0x%016llxULL},\n",
                d.found ? "true" : "false", d.grid_bin,
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(d.range_m)),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(d.mod_power)),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(d.snr_db)),
                static_cast<unsigned long long>(
                    std::bit_cast<std::uint64_t>(d.signature_score)));
  return buf;
}

bool matches(const TagDetection& d, const Golden& g) {
  return d.found == g.found && d.grid_bin == g.grid_bin &&
         std::bit_cast<std::uint64_t>(d.range_m) == g.range_m &&
         std::bit_cast<std::uint64_t>(d.mod_power) == g.mod_power &&
         std::bit_cast<std::uint64_t>(d.snr_db) == g.snr_db &&
         std::bit_cast<std::uint64_t>(d.signature_score) == g.signature_score;
}

::testing::AssertionResult matches_golden(std::span<const TagDetection> got,
                                          std::span<const Golden> want) {
  bool ok = got.size() == want.size();
  for (std::size_t i = 0; ok && i < got.size(); ++i)
    ok = matches(got[i], want[i]);
  if (ok) return ::testing::AssertionSuccess();
  std::string rows;
  for (const TagDetection& d : got) rows += format_row(d);
  return ::testing::AssertionFailure()
         << "detections differ from the pinned values; actual rows:\n"
         << rows;
}

rf::ChirpParams fixed_chirp() {
  rf::ChirpParams c;
  c.start_frequency_hz = 9e9;
  c.bandwidth_hz = 1e9;
  c.duration_s = 60e-6;
  c.idle_s = kPeriod - c.duration_s;
  return c;
}

/// Static clutter plus tags; tag i is on in chirp m iff on(i, m).
template <typename On>
AlignedProfiles synth_frame(const std::vector<double>& tag_ranges,
                            std::size_t n_chirps, std::uint64_t seed, On on) {
  IfSynthConfig cfg;
  cfg.noise_power_dbm = -90.0;
  cfg.phase_noise_rad_per_sqrt_s = 0.0;
  IfSynthesizer synth(cfg, Rng(seed));
  RangeProcessor proc{RangeProcessorConfig{}};
  const auto chirp = fixed_chirp();
  std::vector<RangeProfile> profiles;
  for (std::size_t m = 0; m < n_chirps; ++m) {
    std::vector<IfReturn> rets = {{1.3, 2e-4, 0.1}, {4.2, 8e-5, 1.0}};
    for (std::size_t i = 0; i < tag_ranges.size(); ++i)
      rets.push_back({tag_ranges[i], on(i, m) ? 2e-5 : 4e-7, 0.0});
    profiles.push_back(proc.process(synth.synthesize(chirp, rets), chirp, kFs));
  }
  RangeAligner aligner{RangeAlignConfig{}};
  auto aligned = aligner.align(profiles);
  subtract_background(aligned, 0);
  return aligned;
}

bool square_on(double f_hz, std::size_t m) {
  const double t = static_cast<double>(m) * kPeriod;
  return t * f_hz - std::floor(t * f_hz) < 0.5;
}

/// Detector results inline and on a 4-thread pool: both must match @p want.
template <typename Run>
void expect_golden(Run run, std::span<const Golden> want) {
  {
    SCOPED_TRACE("inline");
    EXPECT_TRUE(matches_golden(run(nullptr), want));
  }
  ThreadPool pool(4);
  SCOPED_TRACE("4-thread pool");
  EXPECT_TRUE(matches_golden(run(&pool), want));
}

}  // namespace

// One FSK tag hopping over a 4-tone alphabet, 64 chirps per symbol: detect()
// integrates four 64-chirp blocks and fuses them.
TEST(DetectGolden, FskMultiBlockDetect) {
  static constexpr Golden kWant[] = {
      {true, 57, 0x40100c2c09d53e88ULL, 0x3e4d2fdb18343e66ULL,
       0x40401aae95d4a32dULL, 0x3fed3bcb6c708ff4ULL},
  };
  phy::UplinkConfig ul;
  ul.scheme = phy::UplinkScheme::kFsk;
  ul.mod_frequencies_hz = {800.0, 1200.0, 1600.0, 2000.0};
  ul.chirps_per_symbol = 64;
  ul.chirp_period_s = kPeriod;
  const phy::Bits bits = {1, 0, 0, 1, 1, 1, 0, 0};
  const auto states = phy::uplink_modulate(ul, bits);
  const auto aligned = synth_frame({4.0}, states.size(), 8,
                                   [&](std::size_t, std::size_t m) {
                                     return states[m] != 0;
                                   });

  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = 800.0;
  cfg.candidate_mod_freqs_hz = ul.mod_frequencies_hz;
  cfg.block_chirps = ul.chirps_per_symbol;
  const TagDetector det(cfg);
  expect_golden(
      [&](ThreadPool* pool) {
        return std::vector<TagDetection>{det.detect(aligned, pool)};
      },
      kWant);
}

// Four fixed-tone tags scored in one detect_many call over the whole frame.
TEST(DetectGolden, FourTagDetectMany) {
  static constexpr Golden kWant[] = {
      {true, 28, 0x3ffff598bea54086ULL, 0x3e8ef7533df7f26dULL,
       0x40433c00ed4bc573ULL, 0x3fef262d92aa29deULL},
      {true, 44, 0x4008dabb62c79a6bULL, 0x3e8c305b68df88b5ULL,
       0x4042efd1a10d0ea5ULL, 0x3fef256d75a1a0caULL},
      {true, 74, 0x4014e05785bd0e6dULL, 0x3e84f595efbb0947ULL,
       0x4042d6e35fb01771ULL, 0x3fef4d5f2c772712ULL},
      {true, 91, 0x4019a92da692dab3ULL, 0x3e852287ec99392aULL,
       0x4040a487eb59bac0ULL, 0x3fef512159c1b588ULL},
  };
  const std::vector<double> freqs = {700.0, 1100.0, 1500.0, 2100.0};
  const auto aligned = synth_frame(
      {2.0, 3.1, 5.2, 6.4}, 256, 41,
      [&](std::size_t i, std::size_t m) { return square_on(freqs[i], m); });
  std::vector<TagTarget> targets;
  for (double f : freqs) targets.push_back({f, {}});

  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = freqs[0];
  const TagDetector det(cfg);
  expect_golden(
      [&](ThreadPool* pool) { return det.detect_many(aligned, targets, pool); },
      kWant);
}

// Three inventory slots (singleton, two-channel pair, same-channel pair) in
// one concatenated frame, each scored against the 4-channel plan.
TEST(DetectGolden, ThreeSlotDetectSlots) {
  static constexpr Golden kWant[] = {
      {true, 29, 0x3ff803925b1f706fULL, 0x3e923883c5dbbe32ULL,
       0x4050c47389456d4dULL, 0x3fec89a516f96489ULL},
      {false, 89, 0x40124e0366bc7383ULL, 0x3d57f5e0fd39650cULL,
       0x4022a2c4a924b4f4ULL, 0x3fe5c14e657a4d97ULL},
      {false, 226, 0x40272c407219d10bULL, 0x3d5553be31e4dfa5ULL,
       0x40214bfb404db2f0ULL, 0x3fe36bb38c689fd1ULL},
      {false, 121, 0x4018c57c4f59add3ULL, 0x3d4f694f0d527b4cULL,
       0x401bf2ab6b1b9d86ULL, 0x3fe3211598708818ULL},
      {false, 214, 0x4025fae9f829e200ULL, 0x3d515324298ac685ULL,
       0x40200c45401a5a38ULL, 0x3fe6b2642268f29eULL},
      {true, 45, 0x40026d358769b09fULL, 0x3e687043c9dade66ULL,
       0x404ddeb9cb979208ULL, 0x3fed3885b92e8284ULL},
      {true, 60, 0x4008d16434969bf7ULL, 0x3e4b8dd84c56cc6bULL,
       0x404b645eb157f91cULL, 0x3fed43b3b65cb42dULL},
      {false, 39, 0x4000025dfbe98f84ULL, 0x3d6c954389102092ULL,
       0x4029412bb885870cULL, 0x3fdcbfdd06201b22ULL},
      {true, 92, 0x4012cfbd04d571bbULL, 0x3e23eaa2adc68ca5ULL,
       0x404724f989b63ddaULL, 0x3fec8165d1aa19c9ULL},
      {false, 230, 0x40278dc19cc1a81dULL, 0x3d55308c05e796acULL,
       0x4020fbb5d82068eaULL, 0x3fe2deed8a7ffd7cULL},
      {false, 65, 0x400a89a3e87f8752ULL, 0x3d4d3c7b9378bec5ULL,
       0x401a2b60efe0def5ULL, 0x3fe21de25632cb7eULL},
      {true, 76, 0x400f39867e06ec18ULL, 0x3e35dfd0873aecd8ULL,
       0x40492c03a17f1aa9ULL, 0x3fed3aed01f15aa9ULL},
  };
  core::SystemConfig base;
  base.seed = 33;
  // The pinned frame was recorded with an ideal RF switch: full reflection
  // (0 dB insertion loss gives exactly 1.0) and no absorptive leakage.
  base.tag.node.frontend.rf_switch.insertion_loss_db = 0.0;
  base.tag.node.frontend.rf_switch.isolation_db =
      std::numeric_limits<double>::infinity();
  const auto alphabet = base.make_alphabet();
  const auto plan = core::assign_mod_frequencies(4, base.radar.chirp_period_s);
  const std::size_t m = 64;

  std::vector<core::TagReturn> all;
  for (std::uint32_t t = 0; t < 5; ++t) {
    const double range_m = 1.5 + 0.8 * t;
    all.push_back({range_m, core::tag_backscatter_amplitude(base, range_m),
                   0.37 * static_cast<double>(t), plan[t % 4],
                   tag::draw_duty_phase(base.seed, t)});
  }
  // Slots 3, 7 and 9 of round 5, as InventoryEngine batches them: slot j is
  // window j with the slot's own noise stream.
  const std::uint64_t slots[] = {3, 7, 9};
  const std::span<const core::TagReturn> responders[] = {
      {all.data() + 0, 1}, {all.data() + 1, 2}, {all.data() + 3, 2}};
  std::vector<core::SensingWindow> windows;
  std::vector<TagTarget> targets;
  std::vector<SlotSpan> spans;
  for (std::size_t s = 0; s < 3; ++s) {
    windows.push_back({s * m, m, core::slot_window_rng(base.seed, 5, slots[s]),
                       responders[s], {}});
    spans.push_back({s * m, m, s * plan.size(), plan.size()});
    for (double f : plan) targets.push_back({f, {}});
  }
  const core::RadarFrontEnd front_end(base);
  core::RadarFrame frame;
  frame.chirps.assign(3 * m, alphabet.chirp(core::fixed_sensing_slot(alphabet)));
  obs::RunReport report;
  const AlignedProfiles& aligned = front_end.run(frame, windows, nullptr, report);

  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = plan[0];
  const TagDetector det(cfg);
  expect_golden(
      [&](ThreadPool* pool) {
        std::vector<TagDetection> out(targets.size());
        det.detect_slots(aligned, spans, targets, out, pool);
        return out;
      },
      kWant);
}

// A three-tag BiScatterNetwork: sense_all(false) then sense_all(true) on
// one network, so the pin covers the front end's fixed-slope and CSSK
// frames end to end (synthesis, range FFT, IF correction, background
// subtraction, detect_many), inline and on a 4-lane pool.
TEST(DetectGolden, NetworkSenseAll) {
  struct Want {
    bool detected;
    std::uint64_t range_m;
    std::uint64_t snr_db;
  };
  static constexpr Want kWant[2][3] = {
      {{true, 0x3ffcd4d02f630e35ULL, 0x4051097bf1fe4bfeULL},
       {true, 0x400cd2f8bc426a59ULL, 0x404c1903b4dfef9eULL},
       {true, 0x4015992730fa7004ULL, 0x40486602d655db9fULL}},
      {{true, 0x3ffd00d85dd97c1cULL, 0x4050d0bcef707c27ULL},
       {true, 0x400cf113ea0e02ebULL, 0x404b6098583a3972ULL},
       {true, 0x4015b7e947eeceadULL, 0x4047d202b74b94eaULL}},
  };
  static constexpr std::uint64_t kDetections = 6;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(threads == 1 ? "inline" : "4-lane pool");
    core::NetworkConfig net;
    net.base.seed = 77;
    net.base.dsp_threads = threads;
    const auto freqs =
        core::assign_mod_frequencies(3, net.base.radar.chirp_period_s);
    net.tags = {{0x01, 1.8, freqs[0]}, {0x02, 3.6, freqs[1]},
                {0x03, 5.4, freqs[2]}};
    core::BiScatterNetwork network(net);
    std::string rows;
    bool ok = true;
    for (std::size_t frame = 0; frame < 2; ++frame) {
      const auto obs = network.sense_all(/*downlink_active=*/frame == 1);
      ASSERT_EQ(obs.size(), 3u);
      rows += "      {";
      for (std::size_t i = 0; i < 3; ++i) {
        const Want& w = kWant[frame][i];
        const auto range = std::bit_cast<std::uint64_t>(obs[i].range_m);
        const auto snr = std::bit_cast<std::uint64_t>(obs[i].snr_db);
        ok = ok && obs[i].detected == w.detected && range == w.range_m &&
             snr == w.snr_db;
        char buf[96];
        std::snprintf(buf, sizeof buf, "{%s, 0x%016llxULL, 0x%016llxULL}%s",
                      obs[i].detected ? "true" : "false",
                      static_cast<unsigned long long>(range),
                      static_cast<unsigned long long>(snr), i < 2 ? ", " : "");
        rows += buf;
      }
      rows += "},\n";
    }
    EXPECT_TRUE(ok) << "observations differ from the pinned values; actual "
                       "rows:\n"
                    << rows;
    EXPECT_EQ(network.report().detection_attempts, 6u);
    EXPECT_EQ(network.report().detections, kDetections);
  }
}

}  // namespace bis::radar

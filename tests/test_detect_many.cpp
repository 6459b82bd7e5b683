// Batched multi-tag detection (TagDetector::detect_many), plus the
// modulation-frequency collision counter used by BiScatterNetwork.
//
// detect() is a one-target detect_many call, so the parity tests here do not
// compare two implementations. What they prove: batching rows into one bank
// leaves each target's result bit-identical to a one-target call (at every
// pool width, SIMD target and numeric tier, for whole-frame and multi-block
// FSK integration), and results do not depend on the thread count. Pinned
// absolute values live in test_detect_golden.cpp.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/random.hpp"
#include "common/thread_pool.hpp"
#include "core/network.hpp"
#include "dsp/kernels/kernels.hpp"
#include "radar/if_synthesizer.hpp"
#include "radar/range_align.hpp"
#include "radar/range_processor.hpp"
#include "radar/tag_detector.hpp"

namespace bis::radar {
namespace {

constexpr double kFs = 2e6;
constexpr double kPeriod = 120e-6;

rf::ChirpParams fixed_chirp() {
  rf::ChirpParams c;
  c.start_frequency_hz = 9e9;
  c.bandwidth_hz = 1e9;
  c.duration_s = 60e-6;
  c.idle_s = kPeriod - c.duration_s;
  return c;
}

constexpr std::size_t kHopChirps = 64;  ///< FSK symbol length in chirps.

struct SceneTag {
  double range_m;
  double mod_freq_hz;  ///< 0 = static reflector (never switches).
  std::vector<double> hop_hz = {};  ///< FSK: tone per kHopChirps-chirp block,
                                    ///< cycling; overrides mod_freq_hz.
};

/// A frame with several square-wave tags plus static clutter. Each tag
/// toggles between full and residual amplitude on its own frequency (or,
/// under FSK, on its current block's tone).
AlignedProfiles make_frame(const std::vector<SceneTag>& tags,
                           std::uint64_t seed, std::size_t n_chirps = 256) {
  IfSynthConfig cfg;
  cfg.noise_power_dbm = -90.0;
  cfg.phase_noise_rad_per_sqrt_s = 0.0;
  IfSynthesizer synth(cfg, Rng(seed));
  RangeProcessor proc{RangeProcessorConfig{}};
  const auto chirp = fixed_chirp();
  std::vector<RangeProfile> profiles;
  for (std::size_t m = 0; m < n_chirps; ++m) {
    const double t = static_cast<double>(m) * kPeriod;
    std::vector<IfReturn> rets = {{1.3, 2e-4, 0.1}, {4.2, 8e-5, 1.0}};
    for (const SceneTag& tag : tags) {
      const double f =
          tag.hop_hz.empty()
              ? tag.mod_freq_hz
              : tag.hop_hz[(m / kHopChirps) % tag.hop_hz.size()];
      bool on = true;
      if (f > 0.0) on = t * f - std::floor(t * f) < 0.5;
      rets.push_back({tag.range_m, on ? 2e-5 : 4e-7, 0.0});
    }
    profiles.push_back(proc.process(synth.synthesize(chirp, rets), chirp, kFs));
  }
  RangeAligner aligner{RangeAlignConfig{}};
  auto aligned = aligner.align(profiles);
  subtract_background(aligned, 0);
  return aligned;
}

::testing::AssertionResult det_bits_eq(const TagDetection& a,
                                       const TagDetection& b) {
  if (a.found != b.found)
    return ::testing::AssertionFailure() << "found " << a.found << " vs "
                                         << b.found;
  if (a.grid_bin != b.grid_bin)
    return ::testing::AssertionFailure() << "grid_bin " << a.grid_bin
                                         << " vs " << b.grid_bin;
  const double av[] = {a.range_m, a.mod_power, a.snr_db, a.signature_score};
  const double bv[] = {b.range_m, b.mod_power, b.snr_db, b.signature_score};
  for (int i = 0; i < 4; ++i) {
    if (std::bit_cast<std::uint64_t>(av[i]) !=
        std::bit_cast<std::uint64_t>(bv[i]))
      return ::testing::AssertionFailure()
             << "field " << i << ": " << av[i] << " vs " << bv[i]
             << " (bit patterns differ)";
  }
  return ::testing::AssertionSuccess();
}

TagDetectorConfig config_for(double freq, dsp::Precision precision,
                             std::size_t block_chirps = 0) {
  TagDetectorConfig cfg;
  cfg.expected_mod_freq_hz = freq;
  cfg.precision = precision;
  cfg.block_chirps = block_chirps;
  return cfg;
}

/// Per-tag reference: a fresh single-tag detector per target, inline.
std::vector<TagDetection> sequential_reference(
    const AlignedProfiles& aligned, const std::vector<TagTarget>& targets,
    dsp::Precision precision, std::size_t block_chirps = 0) {
  std::vector<TagDetection> out;
  for (const TagTarget& t : targets) {
    TagDetectorConfig cfg =
        config_for(t.expected_mod_freq_hz, precision, block_chirps);
    cfg.candidate_mod_freqs_hz = t.candidate_mod_freqs_hz;
    out.push_back(TagDetector(cfg).detect(aligned));
  }
  return out;
}

/// Restores the process-global SIMD dispatch target after each test.
class DetectMany : public ::testing::Test {
 protected:
  void TearDown() override { dsp::kernels::set_target(saved_); }
  dsp::kernels::SimdTarget saved_ = dsp::kernels::active_target();
};

std::vector<dsp::kernels::SimdTarget> available_targets() {
  using dsp::kernels::SimdTarget;
  std::vector<SimdTarget> out;
  for (SimdTarget t :
       {SimdTarget::kScalar, SimdTarget::kSse2, SimdTarget::kAvx2})
    if (dsp::kernels::target_available(t)) out.push_back(t);
  return out;
}

}  // namespace

TEST_F(DetectMany, BitwiseParityAcrossThreadsTargetsAndTiers) {
  // Fixed tones integrated over the whole frame, and FSK tags hopping tones
  // per 64-chirp symbol, integrated per block and fused across four blocks.
  struct Case {
    const char* name;
    std::vector<SceneTag> scene;
    std::size_t block_chirps;
  };
  const Case cases[] = {
      {"whole frame",
       {{2.0, 700.0}, {3.1, 1100.0}, {5.2, 1500.0}, {6.4, 2100.0}},
       0},
      {"fsk blocks",
       {{2.0, 0.0, {700.0, 1300.0, 700.0, 1300.0}},
        {3.1, 0.0, {1900.0, 1000.0, 1000.0, 1900.0}},
        {5.2, 0.0, {1600.0, 2400.0, 2400.0, 1600.0}}},
       kHopChirps},
  };

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto aligned = make_frame(c.scene, 41);
    std::vector<TagTarget> targets;
    for (const SceneTag& t : c.scene) {
      if (t.hop_hz.empty())
        targets.push_back({t.mod_freq_hz, {}});
      else
        targets.push_back({t.hop_hz[0], {t.hop_hz[0], t.hop_hz[1]}});
    }

    for (dsp::Precision prec :
         {dsp::Precision::kDoubleStrict, dsp::Precision::kFloat32Fast}) {
      SCOPED_TRACE(prec == dsp::Precision::kDoubleStrict ? "double_strict"
                                                         : "float32_fast");
      for (dsp::kernels::SimdTarget t : available_targets()) {
        ASSERT_TRUE(dsp::kernels::set_target(t));
        SCOPED_TRACE(dsp::kernels::target_name(t));
        const auto ref =
            sequential_reference(aligned, targets, prec, c.block_chirps);
        for (const TagDetection& r : ref) ASSERT_TRUE(r.found);
        const TagDetector det(config_for(targets[0].expected_mod_freq_hz,
                                         prec, c.block_chirps));
        for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
          SCOPED_TRACE("threads=" + std::to_string(threads));
          ThreadPool pool(threads);
          const auto got = det.detect_many(aligned, targets,
                                           threads > 1 ? &pool : nullptr);
          ASSERT_EQ(got.size(), ref.size());
          for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE("tag=" + std::to_string(i));
            EXPECT_TRUE(det_bits_eq(got[i], ref[i]));
          }
        }
      }
    }
  }
}

TEST_F(DetectMany, SingleTargetMatchesDetect) {
  const auto aligned = make_frame({{4.0, 900.0}}, 42);
  const TagDetector det(config_for(900.0, dsp::Precision::kDoubleStrict));
  const std::vector<TagTarget> targets = {{900.0, {}}};
  const auto batched = det.detect_many(aligned, targets);
  ASSERT_EQ(batched.size(), 1u);
  EXPECT_TRUE(det_bits_eq(batched[0], det.detect(aligned)));
  EXPECT_TRUE(batched[0].found);
}

TEST_F(DetectMany, DuplicateFrequenciesYieldIdenticalDetections) {
  // Two targets listening on the same tone must come back bit-identical —
  // the bank folds their rows independently but from the same spectra.
  const auto aligned = make_frame({{3.0, 1300.0}}, 43);
  const TagDetector det(config_for(1300.0, dsp::Precision::kDoubleStrict));
  const std::vector<TagTarget> targets = {{1300.0, {}}, {1300.0, {}}};
  ThreadPool pool(2);
  const auto got = det.detect_many(aligned, targets, &pool);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[0].found);
  EXPECT_TRUE(det_bits_eq(got[0], got[1]));
}

TEST_F(DetectMany, StaticReflectorAtClutterRangeNotDetected) {
  // One modulated tag plus a strong *static* reflector: the target listening
  // for a tone that nothing transmits must not claim the clutter bin.
  const auto aligned = make_frame({{3.5, 1100.0}, {5.0, 0.0}}, 44);
  const TagDetector det(config_for(1100.0, dsp::Precision::kDoubleStrict));
  const std::vector<TagTarget> targets = {{1100.0, {}}, {1900.0, {}}};
  const auto got = det.detect_many(aligned, targets);
  EXPECT_TRUE(got[0].found);
  EXPECT_NEAR(got[0].range_m, 3.5, 0.05);
  EXPECT_FALSE(got[1].found);
}

TEST_F(DetectMany, FskCandidatesMatchSequentialReference) {
  const auto aligned = make_frame({{3.5, 1600.0}}, 45);
  const std::vector<TagTarget> targets = {
      {800.0, {800.0, 1200.0, 1600.0, 2000.0}}};
  const auto ref =
      sequential_reference(aligned, targets, dsp::Precision::kDoubleStrict);
  TagDetectorConfig cfg = config_for(800.0, dsp::Precision::kDoubleStrict);
  cfg.candidate_mod_freqs_hz = targets[0].candidate_mod_freqs_hz;
  const TagDetector det(cfg);
  const auto got = det.detect_many(aligned, targets);
  ASSERT_TRUE(ref[0].found);
  EXPECT_TRUE(det_bits_eq(got[0], ref[0]));
}

// ---------------------------------------------------------------------------
// Modulation-frequency spacing diagnostics (BiScatterNetwork)

TEST(ModFreqCollisions, CountsPairsCloserThanSlowTimeResolution) {
  // 256 chirps at 120 µs → resolution 1/(256·120e-6) ≈ 32.55 Hz.
  const double res = 1.0 / (256.0 * kPeriod);
  const std::vector<double> clean = {600.0, 600.0 + 2.0 * res,
                                     600.0 + 4.0 * res};
  EXPECT_EQ(core::count_mod_freq_collisions(clean, 256, kPeriod), 0u);

  const std::vector<double> tight = {600.0, 600.0 + 0.5 * res, 900.0};
  EXPECT_EQ(core::count_mod_freq_collisions(tight, 256, kPeriod), 1u);

  // Unsorted input: the counter must sort before pairing neighbours.
  const std::vector<double> unsorted = {900.0, 600.0 + 0.5 * res, 600.0};
  EXPECT_EQ(core::count_mod_freq_collisions(unsorted, 256, kPeriod), 1u);

  const std::vector<double> all_same = {700.0, 700.0, 700.0};
  EXPECT_EQ(core::count_mod_freq_collisions(all_same, 256, kPeriod), 2u);
}

TEST(ModFreqCollisions, DegenerateInputsCountZero) {
  EXPECT_EQ(core::count_mod_freq_collisions({}, 256, kPeriod), 0u);
  const std::vector<double> one = {800.0};
  EXPECT_EQ(core::count_mod_freq_collisions(one, 256, kPeriod), 0u);
  const std::vector<double> two = {800.0, 800.1};
  EXPECT_EQ(core::count_mod_freq_collisions(two, 0, kPeriod), 0u);
  EXPECT_EQ(core::count_mod_freq_collisions(two, 256, 0.0), 0u);
}

TEST(ModFreqCollisions, NetworkSpacingAvoidsCollisionsAtModestCounts) {
  // assign_mod_frequencies spreads tags over 70% of slow-time Nyquist; at
  // counts where spacing exceeds the frame's frequency resolution the
  // network must report zero collisions.
  const auto freqs = core::assign_mod_frequencies(16, kPeriod);
  EXPECT_EQ(core::count_mod_freq_collisions(freqs, 256, kPeriod), 0u);
}

}  // namespace bis::radar

// Property-style parameterized sweeps across modules: invariants that must
// hold over whole parameter ranges rather than single examples.

#include <gtest/gtest.h>

#include <cmath>

#include "dsp_oracle.hpp"
#include "mmhand/common/stats.hpp"
#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/hand/gesture.hpp"
#include "mmhand/hand/kinematics.hpp"
#include "mmhand/nn/optimizer.hpp"
#include "mmhand/pose/kinematic_loss.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"

namespace mmhand {
namespace {

// ---------- DSP properties ----------

struct BandpassCase {
  int order;
  double lo, hi, fs;
};

class BandpassProperty : public ::testing::TestWithParam<BandpassCase> {};

TEST_P(BandpassProperty, PassbandAboveStopband) {
  const auto c = GetParam();
  const auto f = dsp::butterworth_bandpass(c.order, c.lo, c.hi, c.fs);
  const double center = std::sqrt(c.lo * c.hi);
  const double pass = std::abs(f.response(center / c.fs));
  const double stop_low = std::abs(f.response(0.2 * c.lo / c.fs));
  const double stop_high =
      std::abs(f.response(std::min(3.0 * c.hi, 0.49 * c.fs) / c.fs));
  EXPECT_GT(pass, 0.9);
  EXPECT_LT(stop_low, 0.3 * pass);
  EXPECT_LT(stop_high, 0.5 * pass);
}

TEST_P(BandpassProperty, FilterIsStable) {
  // All poles inside the unit circle: a long impulse response must decay.
  const auto c = GetParam();
  const auto f = dsp::butterworth_bandpass(c.order, c.lo, c.hi, c.fs);
  std::vector<double> impulse(2048, 0.0);
  impulse[0] = 1.0;
  const auto h = dsp::oracle::filter(f, impulse);
  double head = 0.0, tail = 0.0;
  for (std::size_t i = 0; i < 256; ++i) head += std::abs(h[i]);
  for (std::size_t i = h.size() - 256; i < h.size(); ++i)
    tail += std::abs(h[i]);
  EXPECT_LT(tail, 1e-3 * (head + 1e-12));
}

INSTANTIATE_TEST_SUITE_P(
    Bands, BandpassProperty,
    ::testing::Values(BandpassCase{4, 50, 150, 1000},
                      BandpassCase{8, 30e3, 200e3, 800e3},
                      BandpassCase{6, 10, 40, 200},
                      BandpassCase{2, 100, 300, 2000}));

// ---------- Radar properties ----------

class VelocityAliasing : public ::testing::TestWithParam<double> {};

TEST_P(VelocityAliasing, VelocityWrapsModuloUnambiguousRange) {
  // A target faster than v_max must alias to v - 2*v_max — the classic
  // Doppler ambiguity of a TDM chirp train.
  radar::ChirpConfig c;
  c.noise_stddev = 0.0;
  const radar::AntennaArray arr(c);
  const radar::IfSimulator sim(c, arr);
  radar::PipelineConfig pc;
  const radar::RadarPipeline pipe(c, arr, pc);

  const double v_true = GetParam();
  const double v_max = c.max_velocity_mps();
  double expected = v_true;
  while (expected >= v_max) expected -= 2.0 * v_max;
  while (expected < -v_max) expected += 2.0 * v_max;

  radar::Scene scene{{Vec3{0.0, 0.30, 0.0}, Vec3{0.0, v_true, 0.0}, 1.0}};
  Rng rng(1);
  const auto cube = pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
  int best_v = 0, best_d = 0;
  float best = -1.0f;
  for (int v = 0; v < cube.velocity_bins(); ++v)
    for (int d = 0; d < cube.range_bins(); ++d)
      for (int a = 0; a < pc.cube.azimuth_bins; ++a)
        if (cube.at(v, d, a) > best) {
          best = cube.at(v, d, a);
          best_v = v;
          best_d = d;
        }
  (void)best_d;
  const double bin_width = 2.0 * v_max / c.chirps_per_frame;
  EXPECT_NEAR(pipe.velocity_for_bin(best_v), expected, 1.5 * bin_width)
      << "true " << v_true << " expected alias " << expected;
}

INSTANTIATE_TEST_SUITE_P(Velocities, VelocityAliasing,
                         ::testing::Values(1.0, 5.0, 7.5, -6.0));

TEST(RadarProperty, TwoTargetsSeparatedInRangeResolve) {
  radar::ChirpConfig c;
  c.noise_stddev = 0.0;
  const radar::AntennaArray arr(c);
  const radar::IfSimulator sim(c, arr);
  radar::PipelineConfig pc;
  const radar::RadarPipeline pipe(c, arr, pc);

  radar::Scene scene{{Vec3{0.0, 0.25, 0.0}, Vec3{}, 1.0},
                     {Vec3{0.0, 0.55, 0.0}, Vec3{}, 1.0}};
  Rng rng(2);
  const auto cube = pipe.process_frame(sim.simulate_frame(scene, 0.0, rng));
  // Range profile at zero Doppler: energy peaks near both targets.
  const int v0 = c.chirps_per_frame / 2;
  std::vector<double> profile(static_cast<std::size_t>(cube.range_bins()));
  for (int d = 0; d < cube.range_bins(); ++d) {
    double e = 0.0;
    for (int a = 0; a < pc.cube.azimuth_bins; ++a) e += cube.at(v0, d, a);
    profile[static_cast<std::size_t>(d)] = e;
  }
  const int bin1 = static_cast<int>(0.25 / c.range_resolution_m() + 0.5);
  const int bin2 = static_cast<int>(0.55 / c.range_resolution_m() + 0.5);
  const double valley = profile[static_cast<std::size_t>((bin1 + bin2) / 2)];
  EXPECT_GT(profile[static_cast<std::size_t>(bin1)], 1.1 * valley);
  EXPECT_GT(profile[static_cast<std::size_t>(bin2)], 1.1 * valley);
}

// ---------- Hand / kinematic-loss properties ----------

class GestureKinematics : public ::testing::TestWithParam<int> {};

TEST_P(GestureKinematics, KinematicLossOfTruthIsSmallForEveryGestureAndUser) {
  const auto g = static_cast<hand::Gesture>(GetParam() % hand::kNumGestures);
  const int user = GetParam() / hand::kNumGestures;
  const auto profile = hand::HandProfile::for_user(user);
  hand::HandPose pose;
  pose.fingers = hand::gesture_articulation(g);
  const auto joints = hand::forward_kinematics(profile, pose);
  nn::Tensor row({63});
  for (int j = 0; j < hand::kNumJoints; ++j) {
    row[static_cast<std::size_t>(3 * j)] =
        static_cast<float>(joints[static_cast<std::size_t>(j)].x);
    row[static_cast<std::size_t>(3 * j + 1)] =
        static_cast<float>(joints[static_cast<std::size_t>(j)].y);
    row[static_cast<std::size_t>(3 * j + 2)] =
        static_cast<float>(joints[static_cast<std::size_t>(j)].z);
  }
  EXPECT_LT(pose::kinematic_loss(row, row).value, 0.06)
      << hand::gesture_name(g) << " user " << user;
}

INSTANTIATE_TEST_SUITE_P(GesturesAndUsers, GestureKinematics,
                         ::testing::Range(0, 4 * hand::kNumGestures));

class ScriptBoneLengths : public ::testing::TestWithParam<int> {};

TEST_P(ScriptBoneLengths, ContinuousScriptsPreservePhalangeLengths) {
  const int user = GetParam();
  const auto profile = hand::HandProfile::for_user(user);
  hand::GestureScriptConfig cfg;
  hand::GestureScript script(cfg, Rng(100 + user), 3.0);
  for (double t = 0.0; t < 3.0; t += 0.31) {
    const auto joints =
        hand::forward_kinematics(profile, script.pose_at(t));
    for (int f = 0; f < hand::kNumFingers; ++f)
      for (int k = 0; k < 3; ++k) {
        const int child = hand::finger_joint(static_cast<hand::Finger>(f),
                                             k + 1);
        EXPECT_NEAR(
            hand::bone_length(joints, child),
            profile.phalange_lengths[static_cast<std::size_t>(f)]
                                    [static_cast<std::size_t>(k)],
            1e-9);
      }
  }
}

INSTANTIATE_TEST_SUITE_P(Users, ScriptBoneLengths, ::testing::Range(0, 6));

// ---------- Optimizer properties ----------

class CosineDecayProperty : public ::testing::TestWithParam<int> {};

TEST_P(CosineDecayProperty, MonotoneNonIncreasingOverSchedule) {
  const int total = GetParam();
  double prev = 1.1;
  for (int e = 0; e < total; ++e) {
    const double v = nn::cosine_decay(e, total);
    EXPECT_LE(v, prev + 1e-12);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Lengths, CosineDecayProperty,
                         ::testing::Values(1, 2, 10, 100, 500));

// ---------- Stats properties ----------

class PercentileProperty : public ::testing::TestWithParam<int> {};

TEST_P(PercentileProperty, PercentilesAreMonotoneAndBounded) {
  Rng rng(GetParam());
  std::vector<double> xs(200);
  for (auto& x : xs) x = rng.normal(5.0, 2.0);
  double prev = -1e18;
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 100.0}) {
    const double v = percentile(xs, p);
    EXPECT_GE(v, prev);
    EXPECT_GE(v, min_value(xs));
    EXPECT_LE(v, max_value(xs));
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileProperty, ::testing::Range(1, 6));

}  // namespace
}  // namespace mmhand

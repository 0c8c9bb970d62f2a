// Tests for the SIMD layer: ISA dispatch; every lane-batched DSP entry
// point (fft_lanes_pow2, zoom_plan(...).run_lanes, filtfilt_batch,
// vmag) at width 1 and at the best vector ISA against the naive oracles
// in dsp_oracle.hpp; the radar pipeline against a naive test-local
// cube; and the bitwise golden pins of the pipeline cube (DESIGN §9).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <vector>

#include "dsp_oracle.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/dsp/window.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand {
namespace {

using dsp::Complex;
using simd::Isa;

/// Restores the active ISA on scope exit so test order cannot leak a
/// forced ISA into later suites.
class IsaGuard {
 public:
  IsaGuard() : saved_(simd::active_isa()) {}
  ~IsaGuard() { simd::set_isa(saved_); }

 private:
  Isa saved_;
};

/// Best vector (non-scalar) ISA, or kScalar when the host has none.
Isa vector_isa() { return simd::best_supported_isa(); }

/// Width 1 and, when the host has one, the best vector ISA.
std::vector<Isa> test_isas() {
  std::vector<Isa> isas{Isa::kScalar};
  if (vector_isa() != Isa::kScalar) isas.push_back(vector_isa());
  return isas;
}

std::vector<Complex> random_signal(std::size_t n, Rng& rng) {
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex{rng.normal(), rng.normal()};
  return x;
}

/// Max elementwise |a-b| relative to the reference's L-inf norm.
double rel_error(const std::vector<Complex>& ref,
                 const std::vector<Complex>& got) {
  EXPECT_EQ(ref.size(), got.size());
  double scale = 0.0, err = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    scale = std::max(scale, std::abs(ref[i]));
    err = std::max(err, std::abs(ref[i] - got[i]));
  }
  return err / std::max(scale, 1e-300);
}

constexpr double kParityTol = 1e-9;

// --- dispatch -----------------------------------------------------------

TEST(SimdDispatch, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::isa_supported(Isa::kScalar));
  EXPECT_NE(simd::kernels_for(Isa::kScalar), nullptr);
  EXPECT_EQ(simd::kernels_for(Isa::kScalar)->width, 1);
}

TEST(SimdDispatch, SetIsaRoundTripsAndRejectsUnsupported) {
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  EXPECT_EQ(simd::active_isa(), Isa::kScalar);
  EXPECT_EQ(simd::kernels().width, 1);
  for (const Isa isa : {Isa::kAvx2, Isa::kNeon}) {
    if (simd::isa_supported(isa)) {
      EXPECT_TRUE(simd::set_isa(isa));
      EXPECT_EQ(simd::active_isa(), isa);
      EXPECT_GT(simd::kernels().width, 1);
    } else {
      EXPECT_FALSE(simd::set_isa(isa));
      EXPECT_NE(simd::active_isa(), isa);
    }
  }
}

TEST(SimdDispatch, BestSupportedIsSupported) {
  EXPECT_TRUE(simd::isa_supported(simd::best_supported_isa()));
}

TEST(SimdDispatch, IsaNamesAreStable) {
  EXPECT_STREQ(simd::isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(Isa::kAvx2), "avx2");
  EXPECT_STREQ(simd::isa_name(Isa::kNeon), "neon");
}

// --- every entry point against its oracle, at every width ---------------

TEST(ScalarSimdParity, FftLanesMatchNaiveDftAtEveryIsa) {
  IsaGuard guard;
  Rng rng(101);
  for (const Isa isa : test_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    for (const std::size_t n : {2u, 4u, 8u, 16u, 64u, 128u, 512u}) {
      // Width + 1 distinct signals: every lane carries its own data and
      // the last group is partially filled.
      std::vector<std::vector<Complex>> sigs(
          static_cast<std::size_t>(simd::kernels().width) + 1);
      for (auto& x : sigs) x = random_signal(n, rng);
      const auto fwd = dsp::oracle::fft_lanes(sigs, false);
      const auto inv = dsp::oracle::fft_lanes(sigs, true);
      for (std::size_t l = 0; l < sigs.size(); ++l) {
        EXPECT_LT(rel_error(dsp::oracle::dft(sigs[l]), fwd[l]), kParityTol)
            << simd::isa_name(isa) << " fft n=" << n << " lane " << l;
        EXPECT_LT(rel_error(dsp::oracle::dft(sigs[l], true), inv[l]),
                  kParityTol)
            << simd::isa_name(isa) << " ifft n=" << n << " lane " << l;
      }
    }
  }
}

TEST(ScalarSimdParity, ZoomPlanMatchesNaiveBandDftAtEveryIsa) {
  IsaGuard guard;
  Rng rng(103);
  const struct {
    std::size_t n, bins;
    double f_lo, f_hi;
  } cases[] = {
      {5, 7, -0.2, 0.2},   {16, 16, 0.05, 0.25}, {60, 24, -0.4, 0.4},
      {64, 33, 0.0, 0.5},  {64, 16, -0.083, 0.083}, {2, 8, -0.25, 0.25},
  };
  for (const Isa isa : test_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    for (const auto& c : cases) {
      std::vector<std::vector<Complex>> sigs(
          static_cast<std::size_t>(simd::kernels().width) + 1);
      for (auto& x : sigs) x = random_signal(c.n, rng);
      const auto got = dsp::oracle::czt_lanes(
          dsp::zoom_plan(c.n, c.f_lo, c.f_hi, c.bins), sigs);
      for (std::size_t l = 0; l < sigs.size(); ++l)
        EXPECT_LT(rel_error(dsp::oracle::band_dft(sigs[l], c.f_lo, c.f_hi,
                                                  c.bins),
                            got[l]),
                  kParityTol)
            << simd::isa_name(isa) << " n=" << c.n << " bins=" << c.bins
            << " lane " << l;
    }
  }
}

TEST(ScalarSimdParity, FiltfiltBatchMatchesDirectFormAtEveryIsa) {
  IsaGuard guard;
  const auto filt = dsp::butterworth_bandpass(4, 0.05, 0.35, 1.0);
  Rng rng(104);
  for (const Isa isa : test_isas()) {
    ASSERT_TRUE(simd::set_isa(isa));
    // Odd counts leave partially-filled lane blocks; len 9 forces the
    // pad < 3*(2*nsec+1) clamp.
    for (const std::size_t count : {1u, 3u, 5u, 12u}) {
      for (const std::size_t len : {9u, 64u}) {
        const auto orig = random_signal(len * count, rng);
        auto got = orig;
        filt.filtfilt_batch(got.data(), len, count);
        std::vector<Complex> ref;
        for (std::size_t i = 0; i < count; ++i) {
          const auto y = dsp::oracle::filtfilt(
              filt, std::span<const Complex>(orig.data() + i * len, len));
          ref.insert(ref.end(), y.begin(), y.end());
        }
        EXPECT_LT(rel_error(ref, got), kParityTol)
            << simd::isa_name(isa) << " count=" << count << " len=" << len;
      }
    }
  }
}

TEST(ScalarSimdParity, FiltfiltBatchAtWidthOneIsBitwiseDirectForm) {
  // At width 1 the lane cascade computes z1 = (b1*in + z2) - a1*out
  // where the direct form computes (b1*in - a1*out) + z2.  Butterworth
  // bandpass sections have b1 == 0, so both round identically and the
  // width-1 path reproduces the direct form bit for bit; the
  // forced-scalar golden pin below relies on this.
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  const auto filt = dsp::butterworth_bandpass(4, 0.05, 0.35, 1.0);
  for (const auto& s : filt.sections()) ASSERT_EQ(s.b1, 0.0);
  Rng rng(105);
  const std::size_t len = 64, count = 12;
  const auto orig = random_signal(len * count, rng);
  auto batch = orig;
  filt.filtfilt_batch(batch.data(), len, count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto ref = dsp::oracle::filtfilt(
        filt, std::span<const Complex>(orig.data() + i * len, len));
    for (std::size_t t = 0; t < len; ++t) {
      EXPECT_EQ(ref[t].real(), batch[i * len + t].real());
      EXPECT_EQ(ref[t].imag(), batch[i * len + t].imag());
    }
  }
}

TEST(ScalarSimdParity, MagnitudeMatchesStdAbs) {
  Rng rng(106);
  const auto x = random_signal(37, rng);  // odd: exercises the tail loop
  std::vector<double> re(x.size()), im(x.size()), mags(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  for (const Isa isa : test_isas()) {
    simd::kernels_for(isa)->vmag(re.data(), im.data(), mags.data(),
                                 x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
      EXPECT_NEAR(mags[i], std::abs(x[i]), 1e-12 + 1e-9 * std::abs(x[i]))
          << simd::isa_name(isa);
  }
}

// --- radar pipeline -----------------------------------------------------

/// The golden scene: two moving scatterers, paper-shape defaults.
struct GoldenScene {
  radar::ChirpConfig chirp;
  radar::AntennaArray array;
  radar::RadarPipeline pipe;
  radar::IfFrame frame;

  explicit GoldenScene(double noise_stddev = 0.0)
      : chirp([&] {
          radar::ChirpConfig c;
          c.noise_stddev = noise_stddev;
          return c;
        }()),
        array(chirp),
        pipe(chirp, array, radar::PipelineConfig{}),
        frame([&] {
          const radar::IfSimulator sim(chirp, array);
          radar::Scene scene{
              {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
              {Vec3{-0.08, 0.45, -0.01}, Vec3{0.0, -0.2, 0.0}, 0.7},
          };
          Rng rng(11);
          return sim.simulate_frame(scene, 0.0, rng);
        }()) {}
};

/// Naive §III chain for one frame, written from the definitions:
/// direct-form zero-phase bandpass, window + naive DFT per chirp, range
/// crop, window + naive DFT per (tx, rx, range bin) with fftshift and
/// TDM phase compensation, naive band DFTs for azimuth and elevation,
/// log1p magnitude.
radar::RadarCube naive_cube(const radar::ChirpConfig& chirp,
                            const radar::AntennaArray& array,
                            const radar::PipelineConfig& pc,
                            const radar::IfFrame& frame) {
  const int nt = chirp.num_tx, nr = chirp.num_rx;
  const int nc = chirp.chirps_per_frame, ns = chirp.samples_per_chirp;
  const int nd = pc.cube.range_bins;
  const int naz = pc.cube.azimuth_bins, nel = pc.cube.elevation_bins;
  const double fs = chirp.sample_rate_hz();
  const auto bandpass = dsp::butterworth_bandpass(
      pc.butterworth_order, chirp.beat_frequency_hz(pc.band_lo_m),
      std::min(chirp.beat_frequency_hz(pc.band_hi_m), 0.45 * fs), fs);
  const auto rwin = dsp::make_window(pc.range_window,
                                     static_cast<std::size_t>(ns));
  const auto dwin = dsp::make_window(pc.doppler_window,
                                     static_cast<std::size_t>(nc));
  auto idx = [&](int tx, int rx, int c, int d) {
    return ((static_cast<std::size_t>(tx) * nr + rx) * nc + c) * nd +
           static_cast<std::size_t>(d);
  };

  std::vector<Complex> profiles(static_cast<std::size_t>(nt) * nr * nc * nd);
  for (int tx = 0; tx < nt; ++tx)
    for (int rx = 0; rx < nr; ++rx)
      for (int c = 0; c < nc; ++c) {
        const Complex* in = frame.chirp_data(tx, rx, c);
        std::vector<Complex> x(in, in + ns);
        if (pc.enable_bandpass)
          x = dsp::oracle::filtfilt(bandpass, std::span<const Complex>(x));
        for (int s = 0; s < ns; ++s) x[static_cast<std::size_t>(s)] *= rwin[static_cast<std::size_t>(s)];
        const auto spec = dsp::oracle::dft(x);
        for (int d = 0; d < nd; ++d)
          profiles[idx(tx, rx, c, d)] = spec[static_cast<std::size_t>(d)];
      }

  std::vector<Complex> doppler(profiles.size());
  for (int tx = 0; tx < nt; ++tx)
    for (int rx = 0; rx < nr; ++rx)
      for (int d = 0; d < nd; ++d) {
        std::vector<Complex> seq(static_cast<std::size_t>(nc));
        for (int c = 0; c < nc; ++c)
          seq[static_cast<std::size_t>(c)] =
              profiles[idx(tx, rx, c, d)] * dwin[static_cast<std::size_t>(c)];
        const auto spec = dsp::oracle::dft(seq);
        for (int v = 0; v < nc; ++v) {
          const int k = v - nc / 2;  // signed bin after fftshift
          const double comp = -2.0 * dsp::oracle::kPi * k * tx /
                              (static_cast<double>(nc) * nt);
          doppler[idx(tx, rx, v, d)] =
              spec[static_cast<std::size_t>((v + (nc + 1) / 2) % nc)] *
              std::polar(1.0, comp);
        }
      }

  const double f_max = pc.enable_zoom_fft
                           ? std::sin(pc.cube.angle_span_rad()) / 2.0
                           : 0.5;
  const auto& az_row = array.azimuth_row();
  const auto& el_row = array.elevation_row();
  radar::RadarCube cube(nc, nd, naz + nel);
  for (int v = 0; v < nc; ++v)
    for (int d = 0; d < nd; ++d) {
      std::vector<Complex> az;
      for (const auto& [tx, rx] : az_row) az.push_back(doppler[idx(tx, rx, v, d)]);
      const auto az_spec = dsp::oracle::band_dft(
          az, -f_max, f_max, static_cast<std::size_t>(naz));
      for (int a = 0; a < naz; ++a)
        cube.at(v, d, a) = static_cast<float>(std::log1p(
            std::abs(az_spec[static_cast<std::size_t>(naz - 1 - a)])));
      Complex row0{}, row1{};
      for (std::size_t i = 2; i < 6; ++i)
        row0 += doppler[idx(az_row[i].first, az_row[i].second, v, d)];
      for (const auto& [tx, rx] : el_row) row1 += doppler[idx(tx, rx, v, d)];
      const std::vector<Complex> el{row0 / 4.0,
                                    row1 / static_cast<double>(el_row.size())};
      const auto el_spec = dsp::oracle::band_dft(
          el, -f_max, f_max, static_cast<std::size_t>(nel));
      for (int e = 0; e < nel; ++e)
        cube.at(v, d, naz + e) = static_cast<float>(std::log1p(
            std::abs(el_spec[static_cast<std::size_t>(nel - 1 - e)])));
    }
  return cube;
}

void expect_cubes_near(const radar::RadarCube& ref,
                       const radar::RadarCube& got, const char* what) {
  ASSERT_EQ(ref.data().size(), got.data().size());
  float scale = 0.0f;
  for (const float v : ref.data()) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < ref.data().size(); ++i)
    ASSERT_NEAR(ref.data()[i], got.data()[i], 1e-6f * scale)
        << what << " cell " << i;
}

TEST(NaivePipeline, CubeMatchesNaiveChainAtEveryIsa) {
  IsaGuard guard;
  const GoldenScene g(0.02);
  for (const bool zoom : {true, false}) {
    radar::PipelineConfig pc;
    pc.enable_zoom_fft = zoom;
    const radar::RadarPipeline pipe(g.chirp, g.array, pc);
    const auto ref = naive_cube(g.chirp, g.array, pc, g.frame);
    for (const Isa isa : test_isas()) {
      ASSERT_TRUE(simd::set_isa(isa));
      expect_cubes_near(ref, pipe.process_frame(g.frame),
                        simd::isa_name(isa));
    }
  }
}

TEST(VectorPipeline, CubeMatchesScalarWithinTolerance) {
  if (vector_isa() == Isa::kScalar) GTEST_SKIP() << "no vector ISA";
  IsaGuard guard;
  const GoldenScene g;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  const auto ref = g.pipe.process_frame(g.frame);
  ASSERT_TRUE(simd::set_isa(vector_isa()));
  expect_cubes_near(ref, g.pipe.process_frame(g.frame), "vector");
}

// --- golden pins --------------------------------------------------------

/// FNV-1a over the float bit patterns of the radar cube.
std::uint64_t cube_hash(const std::vector<float>& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const float v : data) {
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

TEST(ScalarGolden, PipelineCubeIsBitwiseIdenticalToPreSimd) {
  // Hash captured from the pre-SIMD implementation on this exact scene;
  // the lane-batched stages at width 1 reproduce it (see
  // FiltfiltBatchAtWidthOneIsBitwiseDirectForm).  Drift here means the
  // width-1 arithmetic changed; re-pin only deliberately, recording the
  // old hash, the new hash and the reason.
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kScalar));
  const GoldenScene g;
  const auto cube = g.pipe.process_frame(g.frame);
  ASSERT_EQ(cube.data().size(), 9216u);
  EXPECT_EQ(cube_hash(cube.data()), 0x110a873cc75a1e10ull);
}

TEST(VectorGolden, Avx2PipelineCubeIsPinned) {
  // The same scene under AVX2+FMA: the cube that x86-64 hosts produce
  // by default must not drift unintentionally.  Same re-pin rule.
  if (!simd::isa_supported(Isa::kAvx2)) GTEST_SKIP() << "no AVX2";
  IsaGuard guard;
  ASSERT_TRUE(simd::set_isa(Isa::kAvx2));
  const GoldenScene g;
  const auto cube = g.pipe.process_frame(g.frame);
  ASSERT_EQ(cube.data().size(), 9216u);
  EXPECT_EQ(cube_hash(cube.data()), 0x11cae44857bcd544ull);
}

}  // namespace
}  // namespace mmhand

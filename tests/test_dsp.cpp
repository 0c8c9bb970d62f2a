// Tests for mmhand/dsp: the lane-batched FFT, zoom-FFT/CZT plans,
// windows and the Butterworth bandpass, each production entry point
// checked against the naive oracles in dsp_oracle.hpp.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "dsp_oracle.hpp"
#include "mmhand/common/error.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/dsp/window.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::dsp {
namespace {

constexpr double kPi = std::numbers::pi;

std::vector<Complex> random_signal(std::size_t n, Rng& rng) {
  std::vector<Complex> x(n);
  for (auto& v : x) v = Complex{rng.normal(), rng.normal()};
  return x;
}

/// One distinct random signal per SIMD lane, plus one more so the last
/// lane group is partially filled.
std::vector<std::vector<Complex>> random_lanes(std::size_t n, Rng& rng) {
  std::vector<std::vector<Complex>> sigs(
      static_cast<std::size_t>(simd::kernels().width) + 1);
  for (auto& s : sigs) s = random_signal(n, rng);
  return sigs;
}

std::vector<double> magnitude(const std::vector<Complex>& x) {
  std::vector<double> m(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) m[i] = std::abs(x[i]);
  return m;
}

std::size_t argmax(const std::vector<double>& v) {
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

TEST(Fft, IsPowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(63));
}

TEST(Fft, RejectsNonPowerOfTwoSize) {
  aligned_vector<double> re(12 * 4), im(12 * 4);
  EXPECT_THROW(fft_lanes_pow2(re.data(), im.data(), 12, false), Error);
}

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesReferenceDft) {
  Rng rng(42 + GetParam());
  const auto sigs = random_lanes(GetParam(), rng);
  const auto fast = oracle::fft_lanes(sigs);
  for (std::size_t l = 0; l < sigs.size(); ++l) {
    const auto ref = oracle::dft(sigs[l]);
    ASSERT_EQ(fast[l].size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
      EXPECT_NEAR(std::abs(fast[l][i] - ref[i]), 0.0, 1e-8)
          << "lane " << l << " bin " << i;
  }
}

TEST_P(FftSizes, InverseMatchesReferenceAndRoundTrips) {
  Rng rng(7 + GetParam());
  const auto sigs = random_lanes(GetParam(), rng);
  const auto inv = oracle::fft_lanes(sigs, true);
  const auto back = oracle::fft_lanes(oracle::fft_lanes(sigs), true);
  for (std::size_t l = 0; l < sigs.size(); ++l) {
    const auto ref = oracle::dft(sigs[l], true);
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(std::abs(inv[l][i] - ref[i]), 0.0, 1e-9)
          << "lane " << l << " bin " << i;
      EXPECT_NEAR(std::abs(back[l][i] - sigs[l][i]), 0.0, 1e-9)
          << "lane " << l << " sample " << i;
    }
  }
}

TEST_P(FftSizes, ParsevalHolds) {
  Rng rng(99 + GetParam());
  const auto x = random_signal(GetParam(), rng);
  const auto spec = oracle::fft_one(x);
  double e_time = 0.0, e_freq = 0.0;
  for (const auto& v : x) e_time += std::norm(v);
  for (const auto& v : spec) e_freq += std::norm(v);
  EXPECT_NEAR(e_freq / static_cast<double>(x.size()), e_time,
              1e-8 * e_time + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwoSizes, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 128, 512));

TEST(Fft, PureToneLandsInCorrectBin) {
  const std::size_t n = 64;
  const std::size_t tone = 5;
  std::vector<Complex> x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::polar(1.0, 2.0 * kPi * static_cast<double>(tone * i) /
                               static_cast<double>(n));
  const auto mags = magnitude(oracle::fft_one(x));
  EXPECT_EQ(argmax(mags), tone);
  EXPECT_NEAR(mags[tone], static_cast<double>(n), 1e-9);
}

TEST(Fft, LinearityHolds) {
  Rng rng(13);
  const auto a = random_signal(32, rng);
  const auto b = random_signal(32, rng);
  std::vector<Complex> sum(32);
  for (std::size_t i = 0; i < 32; ++i) sum[i] = 2.0 * a[i] + 3.0 * b[i];
  const auto f = oracle::fft_lanes({sum, a, b});
  for (std::size_t i = 0; i < 32; ++i)
    EXPECT_NEAR(std::abs(f[0][i] - (2.0 * f[1][i] + 3.0 * f[2][i])), 0.0,
                1e-9);
}

TEST(Fft, RealSignalSpectrumIsConjugateSymmetric) {
  Rng rng(5);
  std::vector<Complex> x(32);
  for (auto& v : x) v = Complex{rng.normal(), 0.0};
  const auto spec = oracle::fft_one(x);
  for (std::size_t k = 1; k < 32; ++k)
    EXPECT_NEAR(std::abs(spec[k] - std::conj(spec[32 - k])), 0.0, 1e-9);
}

TEST(ZoomFft, MatchesDenseDftOnBand) {
  // A zoomed band must equal direct evaluation of the DTFT on that band,
  // in every lane.
  Rng rng(21);
  const auto sigs = random_lanes(16, rng);
  const double f_lo = -0.2, f_hi = 0.2;
  const std::size_t bins = 10;
  const auto zoom = oracle::czt_lanes(zoom_plan(16, f_lo, f_hi, bins), sigs);
  for (std::size_t l = 0; l < sigs.size(); ++l) {
    const auto ref = oracle::band_dft(sigs[l], f_lo, f_hi, bins);
    for (std::size_t k = 0; k < bins; ++k)
      EXPECT_NEAR(std::abs(zoom[l][k] - ref[k]), 0.0, 1e-8)
          << "lane " << l << " bin " << k;
  }
}

TEST(ZoomFft, RefinementResolvesCloseTones) {
  // Two tones 0.7 bins apart are unresolvable by the plain 8-point FFT but
  // separate under a finer zoom grid — the reason §III applies zoom-FFT to
  // the angle spectra.
  const std::size_t n = 8;
  std::vector<Complex> x(n);
  const double f1 = 0.10, f2 = 0.19;
  for (std::size_t i = 0; i < n; ++i)
    x[i] = std::polar(1.0, 2.0 * kPi * f1 * static_cast<double>(i)) +
           std::polar(1.0, 2.0 * kPi * f2 * static_cast<double>(i));
  const auto mags = magnitude(oracle::zoom_one(x, 0.05, 0.25, 32));
  // Count strict local maxima above half the strongest bin.
  const double floor = 0.5 * mags[argmax(mags)];
  int peaks = 0;
  for (std::size_t k = 0; k < mags.size(); ++k) {
    const bool left = k == 0 || mags[k] > mags[k - 1];
    const bool right = k + 1 == mags.size() || mags[k] > mags[k + 1];
    if (left && right && mags[k] >= floor) ++peaks;
  }
  EXPECT_GE(peaks, 2);
}

TEST(ZoomFft, FullBandEqualsFft) {
  Rng rng(31);
  const auto x = random_signal(8, rng);
  const auto spec = oracle::fft_one(x);
  const auto zoom = oracle::zoom_one(x, 0.0, 1.0, 8);  // the DFT's grid
  for (std::size_t k = 0; k < 8; ++k)
    EXPECT_NEAR(std::abs(zoom[k] - spec[k]), 0.0, 1e-8);
}

TEST(ZoomFft, RejectsEmptyOrReversedBand) {
  EXPECT_THROW(zoom_plan(8, -0.1, 0.1, 0), Error);
  EXPECT_THROW(zoom_plan(8, 0.1, -0.1, 8), Error);
}

TEST(Czt, DegenerateSingleBin) {
  const CztPlan plan(2, 1, Complex{1, 0}, Complex{1, 0});
  const auto out = oracle::czt_lanes(plan, {{{1, 0}, {1, 0}}});
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_NEAR(std::abs(out[0][0] - Complex{2.0, 0.0}), 0.0, 1e-10);
}

TEST(Window, RectIsAllOnes) {
  const auto w = make_window(WindowType::kRect, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_DOUBLE_EQ(coherent_gain(w), 1.0);
}

class WindowTypes : public ::testing::TestWithParam<WindowType> {};

TEST_P(WindowTypes, SymmetricAndBounded) {
  const auto w = make_window(GetParam(), 33);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_GE(w[i], -1e-12);
    EXPECT_LE(w[i], 1.0 + 1e-12);
    EXPECT_NEAR(w[i], w[w.size() - 1 - i], 1e-12);
  }
}

TEST_P(WindowTypes, PeaksAtCenter) {
  const auto w = make_window(GetParam(), 33);
  const std::size_t mid = 16;
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_LE(w[i], w[mid] + 1e-12);
}

TEST_P(WindowTypes, ReducesLeakage) {
  // An off-grid tone leaks less energy into far bins when windowed.
  const std::size_t n = 64;
  std::vector<Complex> raw(n), win(n);
  const auto w = make_window(GetParam(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const Complex tone =
        std::polar(1.0, 2.0 * kPi * 10.37 * static_cast<double>(i) /
                            static_cast<double>(n));
    raw[i] = tone;
    win[i] = tone * w[i];
  }
  const auto raw_mag = magnitude(oracle::fft_one(raw));
  const auto win_mag = magnitude(oracle::fft_one(win));
  // Compare leakage 12 bins away from the tone, normalized by the peak.
  const double raw_leak = raw_mag[30] / raw_mag[10];
  const double win_leak = win_mag[30] / win_mag[10];
  if (GetParam() == WindowType::kRect) {
    SUCCEED();
  } else {
    EXPECT_LT(win_leak, raw_leak);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWindows, WindowTypes,
                         ::testing::Values(WindowType::kRect,
                                           WindowType::kHann,
                                           WindowType::kHamming,
                                           WindowType::kBlackman));

TEST(Window, SingleElement) {
  EXPECT_EQ(make_window(WindowType::kHann, 1).size(), 1u);
  EXPECT_DOUBLE_EQ(make_window(WindowType::kHann, 1)[0], 1.0);
}

TEST(Butterworth, PassbandIsFlatStopbandRejects) {
  // The paper's configuration: 8th-order bandpass.
  const double fs = 800e3;
  const auto f = butterworth_bandpass(8, 30e3, 200e3, fs);
  // Passband center ~ unity.
  EXPECT_NEAR(std::abs(f.response(80e3 / fs)), 1.0, 0.05);
  EXPECT_GT(std::abs(f.response(50e3 / fs)), 0.7);
  EXPECT_GT(std::abs(f.response(150e3 / fs)), 0.7);
  // Deep stopband.
  EXPECT_LT(std::abs(f.response(1e3 / fs)), 0.02);
  EXPECT_LT(std::abs(f.response(350e3 / fs)), 0.05);
}

TEST(Butterworth, EdgeAttenuationNear3Db) {
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(8, 100.0, 200.0, fs);
  EXPECT_NEAR(std::abs(f.response(100.0 / fs)), std::sqrt(0.5), 0.08);
  EXPECT_NEAR(std::abs(f.response(200.0 / fs)), std::sqrt(0.5), 0.08);
}

TEST(Butterworth, MonotoneStopbandDecay) {
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(4, 100.0, 200.0, fs);
  double prev = std::abs(f.response(90.0 / fs));
  for (double freq = 80.0; freq >= 20.0; freq -= 10.0) {
    const double cur = std::abs(f.response(freq / fs));
    EXPECT_LT(cur, prev + 1e-9);
    prev = cur;
  }
}

TEST(Butterworth, FilterSuppressesOutOfBandTone) {
  const double fs = 800e3;
  const auto f = butterworth_bandpass(8, 30e3, 200e3, fs);
  std::vector<double> in_band(256), out_band(256);
  for (std::size_t i = 0; i < 256; ++i) {
    const double t = static_cast<double>(i) / fs;
    in_band[i] = std::sin(2.0 * kPi * 100e3 * t);
    out_band[i] = std::sin(2.0 * kPi * 5e3 * t);
  }
  auto rms = [](const std::vector<double>& v) {
    double s = 0;
    for (double x : v) s += x * x;
    return std::sqrt(s / static_cast<double>(v.size()));
  };
  EXPECT_GT(rms(oracle::filtfilt_real(f, in_band)), 0.5);
  EXPECT_LT(rms(oracle::filtfilt_real(f, out_band)), 0.05);
}

TEST(Butterworth, FiltFiltIsZeroPhase) {
  // A zero-phase filter must not shift a passband tone.
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(4, 50.0, 150.0, fs);
  std::vector<double> x(512);
  for (std::size_t i = 0; i < 512; ++i)
    x[i] = std::sin(2.0 * kPi * 100.0 * static_cast<double>(i) / fs);
  const auto y = oracle::filtfilt_real(f, x);
  // Compare against the input away from the edges; amplitude ~1, phase ~0.
  double dot = 0.0, xx = 0.0, yy = 0.0;
  for (std::size_t i = 100; i < 412; ++i) {
    dot += x[i] * y[i];
    xx += x[i] * x[i];
    yy += y[i] * y[i];
  }
  const double corr = dot / std::sqrt(xx * yy);
  EXPECT_GT(corr, 0.999);
}

TEST(Butterworth, ComplexFiltFiltMatchesComponentsAndDirectForm) {
  // The real filter acts on each component independently, so filtering
  // (re, im) equals filtering (re, 0) and (im, 0) bit for bit; and each
  // matches the direct-form zero-phase oracle.
  const double fs = 1000.0;
  const auto f = butterworth_bandpass(4, 50.0, 150.0, fs);
  Rng rng(2);
  std::vector<Complex> x(128);
  std::vector<double> re(128), im(128);
  for (std::size_t i = 0; i < 128; ++i) {
    re[i] = rng.normal();
    im[i] = rng.normal();
    x[i] = {re[i], im[i]};
  }
  auto y = x;
  f.filtfilt_batch(y.data(), y.size(), 1);
  const auto yr = oracle::filtfilt_real(f, re);
  const auto yi = oracle::filtfilt_real(f, im);
  const auto ref = oracle::filtfilt(f, std::span<const Complex>(x));
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_DOUBLE_EQ(y[i].real(), yr[i]);
    EXPECT_DOUBLE_EQ(y[i].imag(), yi[i]);
    EXPECT_NEAR(std::abs(y[i] - ref[i]), 0.0, 1e-9);
  }
}

TEST(Butterworth, FiltfiltBatchRejectsShortSignals) {
  const auto f = butterworth_bandpass(4, 50.0, 150.0, 1000.0);
  std::vector<Complex> x(1, Complex{1.0, 0.0});
  EXPECT_THROW(f.filtfilt_batch(x.data(), 1, 1), Error);
}

TEST(Butterworth, RejectsBadArguments) {
  EXPECT_THROW(butterworth_bandpass(7, 10, 20, 100), Error);   // odd order
  EXPECT_THROW(butterworth_bandpass(4, 30, 20, 100), Error);   // lo > hi
  EXPECT_THROW(butterworth_bandpass(4, 10, 60, 100), Error);   // hi > fs/2
  EXPECT_THROW(butterworth_bandpass(4, 0.0, 20, 100), Error);  // lo == 0
}

}  // namespace
}  // namespace mmhand::dsp

#pragma once

// Test-only DSP oracles and adapters.
//
// The oracles are the textbook definitions, written for clarity rather
// than speed: an O(n^2) DFT, the DTFT sampled on a band (what a zoom-FFT
// computes), and the direct-form-II-transposed biquad cascade with a
// zero-phase forward/backward pass.  The adapters run the production
// lane-batched entry points (dsp::fft_lanes_pow2, CztPlan::run_lanes,
// SosFilter::filtfilt_batch) on plain vectors, packing distinct signals
// into the SIMD lanes of the active ISA, so a test compares one against
// the other in a line.

#include <algorithm>
#include <complex>
#include <cstddef>
#include <numbers>
#include <span>
#include <vector>

#include "mmhand/dsp/butterworth.hpp"
#include "mmhand/dsp/fft.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::dsp::oracle {

inline constexpr double kPi = std::numbers::pi;

/// Naive DFT, X_k = sum_i x_i e^{-+2*pi*j*k*i/n}; the inverse includes
/// the 1/n normalization.
inline std::vector<Complex> dft(std::span<const Complex> x,
                                bool inverse = false) {
  const std::size_t n = x.size();
  const double sign = inverse ? 1.0 : -1.0;
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t i = 0; i < n; ++i)
      acc += x[i] * std::polar(1.0, sign * 2.0 * kPi *
                                        static_cast<double>((k * i) % n) /
                                        static_cast<double>(n));
    out[k] = inverse ? acc / static_cast<double>(n) : acc;
  }
  return out;
}

/// Naive band DFT: the DTFT of x at `bins` evenly spaced normalized
/// frequencies f_lo + k*(f_hi - f_lo)/bins, the definition behind
/// dsp::zoom_plan.
inline std::vector<Complex> band_dft(std::span<const Complex> x, double f_lo,
                                     double f_hi, std::size_t bins) {
  std::vector<Complex> out(bins);
  for (std::size_t k = 0; k < bins; ++k) {
    const double f = f_lo + (f_hi - f_lo) * static_cast<double>(k) /
                                static_cast<double>(bins);
    Complex acc{};
    for (std::size_t i = 0; i < x.size(); ++i)
      acc += x[i] * std::polar(1.0, -2.0 * kPi * f * static_cast<double>(i));
    out[k] = acc;
  }
  return out;
}

/// One pass of the biquad cascade over a real signal (direct form II
/// transposed), gain applied after the last section.
inline std::vector<double> filter(const SosFilter& f,
                                  std::span<const double> x) {
  std::vector<double> y(x.begin(), x.end());
  for (const Biquad& s : f.sections()) {
    double z1 = 0.0, z2 = 0.0;
    for (double& v : y) {
      const double in = v;
      const double out = s.b0 * in + z1;
      z1 = s.b1 * in - s.a1 * out + z2;
      z2 = s.b2 * in - s.a2 * out;
      v = out;
    }
  }
  for (double& v : y) v *= f.gain();
  return y;
}

/// Zero-phase filtering: odd-reflection padding of
/// min(n-1, 3*(2*sections+1)) samples on both edges, forward pass,
/// reversed pass, crop.
inline std::vector<double> filtfilt(const SosFilter& f,
                                    std::span<const double> x) {
  const std::size_t n = x.size();
  const std::size_t pad =
      std::min<std::size_t>(n - 1, 3 * (2 * f.sections().size() + 1));
  std::vector<double> ext;
  for (std::size_t i = 0; i < pad; ++i)
    ext.push_back(2.0 * x[0] - x[pad - i]);
  ext.insert(ext.end(), x.begin(), x.end());
  for (std::size_t i = 0; i < pad; ++i)
    ext.push_back(2.0 * x[n - 1] - x[n - 2 - i]);
  std::vector<double> fwd = filter(f, ext);
  std::reverse(fwd.begin(), fwd.end());
  std::vector<double> bwd = filter(f, fwd);
  std::reverse(bwd.begin(), bwd.end());
  return {bwd.begin() + static_cast<std::ptrdiff_t>(pad),
          bwd.begin() + static_cast<std::ptrdiff_t>(pad + n)};
}

/// Complex zero-phase filtering: the real filter on each component.
inline std::vector<Complex> filtfilt(const SosFilter& f,
                                     std::span<const Complex> x) {
  std::vector<double> re(x.size()), im(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
  const auto fre = filtfilt(f, re);
  const auto fim = filtfilt(f, im);
  std::vector<Complex> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = Complex{fre[i], fim[i]};
  return y;
}

// --- adapters onto the production entry points ---------------------------

/// Runs dsp::fft_lanes_pow2 on equal-length signals, simd width at a time
/// with one distinct signal per lane (a short last group repeats its
/// last signal in the spare lanes).
inline std::vector<std::vector<Complex>> fft_lanes(
    const std::vector<std::vector<Complex>>& sigs, bool inverse = false) {
  const std::size_t w = static_cast<std::size_t>(simd::kernels().width);
  const std::size_t n = sigs.at(0).size();
  std::vector<std::vector<Complex>> out(sigs.size());
  aligned_vector<double> re(n * w), im(n * w);
  for (std::size_t first = 0; first < sigs.size(); first += w) {
    for (std::size_t l = 0; l < w; ++l) {
      const auto& s = sigs[std::min(first + l, sigs.size() - 1)];
      for (std::size_t k = 0; k < n; ++k) {
        re[k * w + l] = s[k].real();
        im[k * w + l] = s[k].imag();
      }
    }
    fft_lanes_pow2(re.data(), im.data(), n, inverse);
    for (std::size_t l = 0; l < w && first + l < sigs.size(); ++l)
      for (std::size_t k = 0; k < n; ++k)
        out[first + l].push_back(Complex{re[k * w + l], im[k * w + l]});
  }
  return out;
}

inline std::vector<Complex> fft_one(std::span<const Complex> x,
                                    bool inverse = false) {
  return fft_lanes({std::vector<Complex>(x.begin(), x.end())}, inverse)[0];
}

/// Runs plan.run_lanes on equal-length signals, packed like fft_lanes.
inline std::vector<std::vector<Complex>> czt_lanes(
    const CztPlan& plan, const std::vector<std::vector<Complex>>& sigs) {
  const std::size_t w = static_cast<std::size_t>(simd::kernels().width);
  const std::size_t n = plan.input_size(), m = plan.output_size();
  std::vector<std::vector<Complex>> out(sigs.size());
  aligned_vector<double> re(n * w), im(n * w), ore(m * w), oim(m * w);
  for (std::size_t first = 0; first < sigs.size(); first += w) {
    for (std::size_t l = 0; l < w; ++l) {
      const auto& s = sigs[std::min(first + l, sigs.size() - 1)];
      for (std::size_t k = 0; k < n; ++k) {
        re[k * w + l] = s.at(k).real();
        im[k * w + l] = s.at(k).imag();
      }
    }
    plan.run_lanes(re.data(), im.data(), ore.data(), oim.data());
    for (std::size_t l = 0; l < w && first + l < sigs.size(); ++l)
      for (std::size_t k = 0; k < m; ++k)
        out[first + l].push_back(Complex{ore[k * w + l], oim[k * w + l]});
  }
  return out;
}

inline std::vector<Complex> zoom_one(std::span<const Complex> x, double f_lo,
                                     double f_hi, std::size_t bins) {
  return czt_lanes(zoom_plan(x.size(), f_lo, f_hi, bins),
                   {std::vector<Complex>(x.begin(), x.end())})[0];
}

/// filtfilt_batch on one real signal (zero imaginary part).
inline std::vector<double> filtfilt_real(const SosFilter& f,
                                         std::span<const double> x) {
  std::vector<Complex> c(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) c[i] = Complex{x[i], 0.0};
  f.filtfilt_batch(c.data(), c.size(), 1);
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = c[i].real();
  return y;
}

}  // namespace mmhand::dsp::oracle

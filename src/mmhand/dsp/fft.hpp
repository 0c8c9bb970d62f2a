#pragma once

// Fourier transforms for the radar pre-processing pipeline (§III).
//
// mmHand derives range, velocity and angle information "through a series of
// FFT operations".  Every transform here is lane-batched: it runs
// simd::kernels().width independent signals at once on split-complex
// (SoA) arrays through the simd/ kernel table, at every ISA (width 1
// under the scalar ISA).  Sizes are powers of two — the radar validates
// that for its chirp dimensions — and the zoom angle-FFT evaluates a
// chirp-Z transform through a cached Bluestein `CztPlan`.

#include <complex>
#include <vector>

#include "mmhand/common/aligned.hpp"

namespace mmhand::dsp {

using Complex = std::complex<double>;

/// True when n is a power of two (n >= 1).
bool is_power_of_two(std::size_t n);

/// In-place iterative radix-2 Cooley-Tukey FFT of one interleaved
/// complex signal.  Size must be a power of two.  When `inverse`,
/// computes the inverse transform including the 1/N normalization.
/// Used to build `CztPlan` kernel spectra, so cached plans do not
/// depend on the active ISA.
void fft_pow2_inplace(std::vector<Complex>& x, bool inverse);

/// Lane-batched power-of-two FFT on the active SIMD kernels.  re/im hold
/// n * simd::kernels().width doubles: element k of lane l at [k*W + l].
/// When `inverse`, includes the 1/n normalization.
void fft_lanes_pow2(double* re, double* im, std::size_t n, bool inverse);

/// Precomputed Bluestein evaluation of one chirp-Z transform geometry:
/// the z-transform of n input points at the m points a * w^-k,
/// k = 0..m-1.  Construction is scalar and ISA-independent: the chirp
/// factors and the FFT of the convolution kernel are computed once, so
/// each evaluation is two power-of-two FFTs plus three pointwise
/// multiplies.
class CztPlan {
 public:
  CztPlan(std::size_t n, std::size_t m, Complex w, Complex a);

  std::size_t input_size() const { return n_; }
  std::size_t output_size() const { return m_; }

  /// Evaluates simd::kernels().width signals at once.  re/im hold
  /// input_size()*W doubles lane-batched; out_re/out_im receive
  /// output_size()*W doubles in the same layout.
  void run_lanes(const double* re, const double* im, double* out_re,
                 double* out_im) const;

 private:
  std::size_t n_, m_, conv_;
  aligned_vector<double> fa_re_, fa_im_;      ///< a^-i * w^{i^2/2}, i < n
  aligned_vector<double> fb_re_, fb_im_;      ///< FFT of the chirp kernel
  aligned_vector<double> out_re_, out_im_;    ///< w^{k^2/2}, k < m
};

/// Cached zoom-FFT plan: the spectrum of an n-point signal evaluated on
/// `bins` evenly spaced normalized frequencies in [f_lo, f_hi)
/// (cycles/sample, in [-0.5, 0.5)), i.e.
///   X_k = sum_i x_i e^{-2*pi*j*(f_lo + k*(f_hi - f_lo)/bins)*i}.
/// A zoom-FFT with refinement factor 2 evaluates the same band at twice
/// the density of the plain FFT (§III: angle-FFT refinement).  Plans are
/// built once per geometry and never evicted, so the returned reference
/// stays valid for the process lifetime (same contract as the twiddle
/// cache).
const CztPlan& zoom_plan(std::size_t n, double f_lo, double f_hi,
                         std::size_t bins);

}  // namespace mmhand::dsp

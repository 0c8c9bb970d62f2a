#pragma once

// Butterworth bandpass design and zero-phase filtering (§III).
//
// mmHand "filters the raw mmWave signals through an 8-order bandpass
// Butterworth filter and preserves signals related to the hand": the beat
// frequency of an FMCW return is proportional to target range, so a bandpass
// over the hand's range band (20-40 cm in the paper's setup) suppresses the
// body and furniture clutter before the range-FFT.

#include <complex>
#include <vector>

#include "mmhand/common/aligned.hpp"

namespace mmhand::dsp {

/// One second-order section (biquad), normalized so a0 == 1.
struct Biquad {
  double b0 = 1.0, b1 = 0.0, b2 = 0.0;
  double a1 = 0.0, a2 = 0.0;
};

/// A cascade of biquads with an overall gain.
class SosFilter {
 public:
  SosFilter() = default;
  SosFilter(std::vector<Biquad> sections, double gain);

  /// Zero-phase filters `count` equal-length complex signals in place
  /// (signal i occupies data[i*len, (i+1)*len)): a forward and a
  /// backward pass of the biquad cascade (direct form II transposed),
  /// with odd-reflection padding of min(len-1, 3*(2*sections+1)) samples
  /// on both edges to suppress startup transients.  The real filter
  /// acts on the real and imaginary parts independently; each part is
  /// one real channel riding a lane of the SIMD kernel table, at every
  /// ISA (width 1 under the scalar ISA).  Allocation-free once the
  /// per-thread scratch is warm.
  void filtfilt_batch(std::complex<double>* data, std::size_t len,
                      std::size_t count) const;

  /// Complex frequency response at normalized frequency f in cycles/sample.
  std::complex<double> response(double f) const;

  const std::vector<Biquad>& sections() const { return sections_; }
  double gain() const { return gain_; }

 private:
  std::vector<Biquad> sections_;
  double gain_ = 1.0;
  /// Sections flattened to [b0 b1 b2 a1 a2] runs for the lane-batched
  /// kernel, packed once at construction so `filtfilt_batch` stays
  /// allocation-free per call.
  aligned_vector<double> packed_coeffs_;
};

/// Designs a digital Butterworth bandpass via the bilinear transform.
///
/// `order` is the total filter order and must be even; the underlying
/// lowpass prototype has order/2 poles (scipy's butter(N, ..) "bandpass"
/// yields order 2N — the paper's 8th-order filter corresponds to N = 4).
/// f_lo/f_hi are the -3 dB edges in Hz, fs the sample rate in Hz.
SosFilter butterworth_bandpass(int order, double f_lo, double f_hi,
                               double fs);

}  // namespace mmhand::dsp

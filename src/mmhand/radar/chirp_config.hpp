#pragma once

// FMCW radar configuration (§III, §VI-A).
//
// Defaults mirror the paper's TI IWR1443 setup: 77-81 GHz chirps, 80 us
// chirp cycle, 64 ADC samples per chirp, 3 TX x 4 RX TDM-MIMO.  The number
// of chirp loops per frame is configurable; the paper uses 64, the simulated
// reproduction defaults to 16 to keep CPU training tractable (documented in
// DESIGN.md).

#include <cmath>

#include "mmhand/common/error.hpp"

namespace mmhand::radar {

/// Speed of light in m/s.
inline constexpr double kSpeedOfLight = 299792458.0;

struct ChirpConfig {
  double start_freq_hz = 77.0e9;   ///< f0: chirp start frequency
  double bandwidth_hz = 4.0e9;     ///< B: swept bandwidth (77-81 GHz)
  double chirp_duration_s = 80e-6; ///< Tc: chirp cycle time
  int samples_per_chirp = 64;      ///< ADC samples per chirp
  int chirps_per_frame = 16;       ///< chirp loops per TX per frame
  int num_tx = 3;                  ///< transmit antennas (TDM)
  int num_rx = 4;                  ///< receive antennas
  double frame_period_s = 0.02;    ///< time between frame starts (50 fps)
  double noise_stddev = 0.02;      ///< thermal noise per IF sample

  /// ADC sample rate in Hz.
  double sample_rate_hz() const {
    return static_cast<double>(samples_per_chirp) / chirp_duration_s;
  }
  /// Chirp slope S = B / Tc in Hz/s.
  double slope_hz_per_s() const { return bandwidth_hz / chirp_duration_s; }
  /// Carrier wavelength at the chirp start frequency.
  double wavelength_m() const { return kSpeedOfLight / start_freq_hz; }
  /// Range resolution c / (2B).
  double range_resolution_m() const {
    return kSpeedOfLight / (2.0 * bandwidth_hz);
  }
  /// Maximum unambiguous range fs*c*Tc/(2B)/2 (half the beat Nyquist).
  double max_range_m() const {
    return sample_rate_hz() / 2.0 * kSpeedOfLight /
           (2.0 * slope_hz_per_s());
  }
  /// Effective chirp repetition for one TX under TDM.
  double tdm_chirp_period_s() const {
    return chirp_duration_s * static_cast<double>(num_tx);
  }
  /// Maximum unambiguous radial velocity lambda / (4 * Tc_tdm).
  double max_velocity_mps() const {
    return wavelength_m() / (4.0 * tdm_chirp_period_s());
  }
  /// Beat frequency for a target at range r: f_b = 2*S*r/c.
  double beat_frequency_hz(double range_m) const {
    return 2.0 * slope_hz_per_s() * range_m / kSpeedOfLight;
  }
  /// Range corresponding to a beat frequency.
  double range_for_beat(double beat_hz) const {
    return beat_hz * kSpeedOfLight / (2.0 * slope_hz_per_s());
  }

  void validate() const {
    // Finiteness first: a NaN slips through every `>` comparison below
    // (NaN compares false both ways) and then poisons the whole cube.
    MMHAND_CHECK(std::isfinite(start_freq_hz) && std::isfinite(bandwidth_hz),
                 "chirp frequencies must be finite");
    MMHAND_CHECK(std::isfinite(chirp_duration_s) &&
                     std::isfinite(frame_period_s),
                 "chirp timing must be finite");
    MMHAND_CHECK(std::isfinite(noise_stddev) && noise_stddev >= 0,
                 "noise stddev " << noise_stddev);
    MMHAND_CHECK(start_freq_hz > 0 && bandwidth_hz > 0, "chirp frequencies");
    MMHAND_CHECK(chirp_duration_s > 0, "chirp duration");
    MMHAND_CHECK(samples_per_chirp >= 8, "samples per chirp");
    MMHAND_CHECK(chirps_per_frame >= 2, "chirps per frame");
    // The range- and Doppler-FFTs are radix-2 only.
    MMHAND_CHECK((samples_per_chirp & (samples_per_chirp - 1)) == 0,
                 "samples_per_chirp must be a power of two, got "
                     << samples_per_chirp);
    MMHAND_CHECK((chirps_per_frame & (chirps_per_frame - 1)) == 0,
                 "chirps_per_frame must be a power of two, got "
                     << chirps_per_frame);
    MMHAND_CHECK(num_tx >= 1 && num_rx >= 1, "antenna counts");
    MMHAND_CHECK(frame_period_s >=
                     chirp_duration_s * num_tx * chirps_per_frame,
                 "frame period shorter than the chirp train");
  }
};

/// Radar-cube dimensions produced by the pre-processing pipeline.
struct CubeConfig {
  int range_bins = 24;      ///< cropped leading range bins (~90 cm span)
  int azimuth_bins = 16;    ///< zoom-FFT azimuth bins over +-span
  int elevation_bins = 8;   ///< zoom-FFT elevation bins over +-span
  double angle_span_deg = 30.0;  ///< hand appears within +-30 deg (§III)
  int zoom_factor = 2;      ///< paper's angle-FFT refinement factor

  /// Width of the range-angle image fed to the network: azimuth and
  /// elevation spectra are concatenated along the angle axis.
  int total_angle_bins() const { return azimuth_bins + elevation_bins; }

  /// Angle span in radians.
  double angle_span_rad() const {
    return angle_span_deg * 3.14159265358979323846 / 180.0;
  }

  void validate() const {
    MMHAND_CHECK(range_bins >= 4, "range bins");
    MMHAND_CHECK(azimuth_bins >= 4 && elevation_bins >= 2, "angle bins");
    MMHAND_CHECK(std::isfinite(angle_span_deg) && angle_span_deg > 0 &&
                     angle_span_deg <= 60,
                 "angle span");
    MMHAND_CHECK(zoom_factor >= 1, "zoom factor " << zoom_factor);
  }
};

}  // namespace mmhand::radar

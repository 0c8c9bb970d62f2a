#include "mmhand/dsp/fft.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>

#include "mmhand/common/error.hpp"
#include "mmhand/common/realtime.hpp"
#include "mmhand/simd/simd.hpp"

namespace mmhand::dsp {

namespace {

constexpr double kPi = std::numbers::pi;

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

/// The twiddle cache is keyed by power-of-two FFT size, so instead
/// of a map probe under a mutex on *every* lookup (a lock the purity
/// analyzer rightly flags on the frame path), the cache is a fixed
/// array of atomic slots indexed by log2(n).  Steady state is one
/// acquire load; misses build the table under a mutex and publish with
/// a release store.  Entries are never evicted, so the returned
/// reference stays valid and FFTs run concurrently on pool threads.
constexpr std::size_t kMaxLog2 = 64;
std::atomic<const std::vector<Complex>*> g_twiddle_slots[kMaxLog2];
std::mutex g_twiddle_mu;

/// Forward twiddle factors e^{-2*pi*i*k/n} for k < n/2, cached per FFT
/// size.  The radar pipeline runs thousands of same-size FFTs per frame;
/// computing the table once replaces the per-butterfly `w *= wlen`
/// recurrence (and its accumulated rounding drift).
const std::vector<Complex>& twiddle_table(std::size_t n) {
  MMHAND_ASSERT(is_power_of_two(n));
  const unsigned idx = static_cast<unsigned>(std::countr_zero(n));
  if (const auto* t =
          g_twiddle_slots[idx].load(std::memory_order_acquire))
    return *t;
  std::lock_guard<std::mutex> lk(g_twiddle_mu);
  if (const auto* t =
          g_twiddle_slots[idx].load(std::memory_order_relaxed))
    return *t;
  auto table = std::make_unique<std::vector<Complex>>(n / 2);
  for (std::size_t k = 0; k < n / 2; ++k)
    (*table)[k] = std::polar(
        1.0, -2.0 * kPi * static_cast<double>(k) / static_cast<double>(n));
  // Released, never reclaimed: the cache owns one table per size for
  // the process lifetime, exactly as the map-of-unique_ptr did.
  const auto* published = table.release();
  g_twiddle_slots[idx].store(published, std::memory_order_release);
  return *published;
}

/// The same factors viewed as interleaved re,im doubles — the layout
/// the lane-batched FFT kernel broadcasts from.  std::complex<double>
/// is layout-compatible with double[2].
const double* twiddle_interleaved(std::size_t n) {
  return reinterpret_cast<const double*>(twiddle_table(n).data());
}

/// Grows-on-demand per-thread scratch for the lane-batched CZT path, so
/// the per-cell zoom transforms allocate nothing in steady state.
double* czt_scratch(std::size_t doubles) {
  thread_local aligned_vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

void fft_pow2_inplace(std::vector<Complex>& x, bool inverse) {
  const std::size_t n = x.size();
  MMHAND_CHECK(is_power_of_two(n), "fft_pow2 size " << n);
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  if (n >= 2) {
    const auto& tw = twiddle_table(n);
    for (std::size_t len = 2; len <= n; len <<= 1) {
      // Stage twiddles w_len^k are the cached w_n^{k*stride}.
      const std::size_t stride = n / len;
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t k = 0; k < len / 2; ++k) {
          const Complex w =
              inverse ? std::conj(tw[k * stride]) : tw[k * stride];
          const Complex u = x[i + k];
          const Complex v = x[i + k + len / 2] * w;
          x[i + k] = u + v;
          x[i + k + len / 2] = u - v;
        }
      }
    }
  }
  if (inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (auto& v : x) v *= inv_n;
  }
}

MMHAND_REALTIME
void fft_lanes_pow2(double* re, double* im, std::size_t n, bool inverse) {
  MMHAND_CHECK(is_power_of_two(n), "fft_lanes size " << n);
  if (n < 2) return;
  simd::kernels().fft_lanes(re, im, n, twiddle_interleaved(n), inverse);
}

CztPlan::CztPlan(std::size_t n, std::size_t m, Complex w, Complex a)
    : n_(n), m_(m), conv_(next_pow2(n + m - 1)) {
  MMHAND_CHECK(n >= 1 && m >= 1, "czt plan sizes n=" << n << " m=" << m);
  // Bluestein's algorithm: X_k = w^{k^2/2} * sum_i x_i a^{-i} w^{i^2/2}
  //                               * w^{-(k-i)^2/2},
  // a convolution evaluated with power-of-two FFTs.  Every factor is
  // computed once here; the kernel spectrum is built with the
  // interleaved FFT so the plan's tables do not depend on the active
  // ISA.  Chirp factors use angle accumulation, arg(w^{k^2/2}) =
  // k^2/2 * arg(w), so large k^2 lose no precision to integer powers.
  const double wang = std::arg(w);
  const double wmag = std::abs(w);
  auto chirp = [&](double k2_half) {
    return std::polar(std::pow(wmag, k2_half), wang * k2_half);
  };

  fa_re_.resize(n);
  fa_im_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double i2 = 0.5 * static_cast<double>(i) * static_cast<double>(i);
    const Complex f = std::pow(a, -static_cast<double>(i)) * chirp(i2);
    fa_re_[i] = f.real();
    fa_im_[i] = f.imag();
  }

  std::vector<Complex> fb(conv_, Complex{});
  const std::size_t lim = std::max(n, m);
  for (std::size_t i = 0; i < lim; ++i) {
    const double i2 = 0.5 * static_cast<double>(i) * static_cast<double>(i);
    const Complex v = chirp(-i2);
    if (i < m) fb[i] = v;
    if (i >= 1 && i < n) fb[conv_ - i] = v;
  }
  fft_pow2_inplace(fb, false);
  fb_re_.resize(conv_);
  fb_im_.resize(conv_);
  for (std::size_t i = 0; i < conv_; ++i) {
    fb_re_[i] = fb[i].real();
    fb_im_[i] = fb[i].imag();
  }

  out_re_.resize(m);
  out_im_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const double k2 = 0.5 * static_cast<double>(k) * static_cast<double>(k);
    const Complex c = chirp(k2);
    out_re_[k] = c.real();
    out_im_[k] = c.imag();
  }
}

MMHAND_REALTIME
void CztPlan::run_lanes(const double* re, const double* im, double* out_re,
                        double* out_im) const {
  const auto& k = simd::kernels();
  const std::size_t w = static_cast<std::size_t>(k.width);
  double* br = czt_scratch(2 * conv_ * w);
  double* bi = br + conv_ * w;
  std::copy(re, re + n_ * w, br);
  std::copy(im, im + n_ * w, bi);
  std::fill(br + n_ * w, br + conv_ * w, 0.0);
  std::fill(bi + n_ * w, bi + conv_ * w, 0.0);
  k.cmul_bcast(br, bi, fa_re_.data(), fa_im_.data(), n_);
  const double* tw = twiddle_interleaved(conv_);
  k.fft_lanes(br, bi, conv_, tw, false);
  k.cmul_bcast(br, bi, fb_re_.data(), fb_im_.data(), conv_);
  k.fft_lanes(br, bi, conv_, tw, true);
  std::copy(br, br + m_ * w, out_re);
  std::copy(bi, bi + m_ * w, out_im);
  k.cmul_bcast(out_re, out_im, out_re_.data(), out_im_.data(), m_);
}

namespace {

/// Append-only plan cache with a lock-free read path.  Keys are
/// arbitrary (size, bins, band) tuples, so there is no slot array to
/// index; instead published plans live on a singly-linked list whose
/// head is an atomic pointer.  A handful of distinct zoom geometries
/// exist per process, so the linear walk is shorter than the old
/// std::map probe — and it takes no lock.  Nodes are never removed,
/// preserving the reference-stays-valid contract.
struct PlanNode {
  std::size_t n;
  std::size_t bins;
  std::uint64_t f_lo_bits;
  std::uint64_t f_hi_bits;
  CztPlan plan;
  PlanNode* next;
};

std::atomic<PlanNode*> g_plan_head{nullptr};
std::mutex g_plan_mu;

}  // namespace

const CztPlan& zoom_plan(std::size_t n, double f_lo, double f_hi,
                         std::size_t bins) {
  const std::uint64_t lo = std::bit_cast<std::uint64_t>(f_lo);
  const std::uint64_t hi = std::bit_cast<std::uint64_t>(f_hi);
  for (const PlanNode* p = g_plan_head.load(std::memory_order_acquire);
       p != nullptr; p = p->next)
    if (p->n == n && p->bins == bins && p->f_lo_bits == lo &&
        p->f_hi_bits == hi)
      return p->plan;
  MMHAND_CHECK(bins >= 1, "zoom plan needs bins >= 1");
  MMHAND_CHECK(f_hi > f_lo, "zoom plan band [" << f_lo << ", " << f_hi << ")");
  std::lock_guard<std::mutex> lk(g_plan_mu);
  // Re-scan under the lock: another thread may have published the plan
  // between the lock-free miss and acquiring the mutex.
  for (const PlanNode* p = g_plan_head.load(std::memory_order_relaxed);
       p != nullptr; p = p->next)
    if (p->n == n && p->bins == bins && p->f_lo_bits == lo &&
        p->f_hi_bits == hi)
      return p->plan;
  // The band is a CZT with A = e^{+2*pi*i*f_lo} (so A^{-n} gives the
  // f_lo shift) and W = e^{-2*pi*i*step} (so W^{nk} sweeps the band).
  const double step = (f_hi - f_lo) / static_cast<double>(bins);
  const Complex a = std::polar(1.0, 2.0 * kPi * f_lo);
  const Complex w = std::polar(1.0, -2.0 * kPi * step);
  auto node = std::make_unique<PlanNode>(
      PlanNode{n, bins, lo, hi, CztPlan(n, bins, w, a),
               g_plan_head.load(std::memory_order_relaxed)});
  const PlanNode* published = node.get();
  g_plan_head.store(node.release(), std::memory_order_release);
  return published->plan;
}

}  // namespace mmhand::dsp

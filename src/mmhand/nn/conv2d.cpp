#include "mmhand/nn/conv2d.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "mmhand/common/parallel.hpp"
#include "mmhand/nn/gemm.hpp"

namespace mmhand::nn {

namespace {

/// Gathers one im2col row from a single-channel [h x w] map `xc`:
/// row[i * ow + j] = xc[i * step + off_i, j * step + off_j], zero where
/// the tap falls outside the map.  Conv2d gathers with step = stride,
/// off = k - pad; each ConvTranspose2d phase with step = 1 and a
/// per-tap offset.
void gather_row(const float* xc, int h, int w, int oh, int ow, int step,
                int off_i, int off_j, float* row) {
  for (int i = 0; i < oh; ++i, row += ow) {
    const int src_i = i * step + off_i;
    if (src_i < 0 || src_i >= h) {
      std::fill(row, row + ow, 0.0f);
      continue;
    }
    const float* xr = xc + static_cast<std::size_t>(src_i) * w;
    for (int j = 0; j < ow; ++j) {
      const int src_j = j * step + off_j;
      row[j] = (src_j >= 0 && src_j < w) ? xr[src_j] : 0.0f;
    }
  }
}

/// Gathers sample `xs` ([in_ch, h, w]) into im2col layout: one row per
/// (channel, ki, kj) triple, one column per output pixel.
void im2col(const float* xs, int in_ch, int h, int w, int kernel,
            int stride, int pad, int oh, int ow, float* cols) {
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  const std::size_t col_cols = static_cast<std::size_t>(oh) * ow;
  for (int c = 0; c < in_ch; ++c)
    for (int ki = 0; ki < kernel; ++ki)
      for (int kj = 0; kj < kernel; ++kj, cols += col_cols)
        gather_row(xs + c * plane, h, w, oh, ow, stride, ki - pad, kj - pad,
                   cols);
}

/// Per-thread staging, grown on demand: steady-state inference forwards
/// allocate nothing here (audited in scripts/purity_allowlist.json).
/// Slot 0 holds im2col columns; slot 1 holds ConvTranspose2d's packed
/// weights, which the calling thread fills before its samples fan out
/// and may then stage its own sample's columns in slot 0.
float* im2col_scratch(std::size_t floats, int slot = 0) {
  thread_local std::vector<float> buf[2];
  std::vector<float>& b = buf[slot];
  if (b.size() < floats) b.resize(floats);
  return b.data();
}

/// One output phase of a stride-`stride` transposed convolution along one
/// axis.  Outputs r, r + stride, ... only receive kernel taps
/// k = (r + pad) mod stride + m * stride, so each phase is a small dense
/// convolution of the input.  Taps are numbered in ascending input order:
/// tap t has kernel index `k_top - t * stride`, and the phase's q-th output
/// reads input q + off + t through it.  Gathering in that order
/// accumulates every output's inputs in (i ascending, j ascending) order,
/// the order a direct scatter over the input visits them.
struct Phase {
  int outputs;  ///< outputs of this phase within the extent
  int taps;     ///< kernel taps reaching each of them
  int k_top;    ///< kernel index of tap 0
  int off;      ///< input offset of tap 0
};

Phase deconv_phase(int r, int out, int kernel, int stride, int pad) {
  const int k_low = (r + pad) % stride;
  Phase p;
  p.outputs = r < out ? (out - r + stride - 1) / stride : 0;
  p.taps = kernel > k_low ? (kernel - k_low + stride - 1) / stride : 0;
  p.k_top = k_low + (p.taps - 1) * stride;
  p.off = (r + pad - p.k_top) / stride;
  return p;
}

}  // namespace

Conv2d::Conv2d(int in_channels, int out_channels, int kernel, int stride,
               int pad, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::randn(
                  {out_channels, in_channels, kernel, kernel}, rng,
                  std::sqrt(2.0 / (in_channels * kernel * kernel))),
              "conv.weight"),
      bias_(Tensor::zeros({out_channels}), "conv.bias") {
  MMHAND_CHECK(in_channels >= 1 && out_channels >= 1, "Conv2d channels");
  MMHAND_CHECK(kernel >= 1 && stride >= 1 && pad >= 0, "Conv2d geometry");
}

Tensor Conv2d::forward(const Tensor& x, bool training) {
  MMHAND_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
               "Conv2d expects [N, " << in_ch_ << ", H, W]");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(oh >= 1 && ow >= 1, "Conv2d output collapsed");
  if (training) cached_input_ = x;

  const int col_rows = in_ch_ * kernel_ * kernel_;
  const int col_cols = oh * ow;

  Tensor y({n, out_ch_, oh, ow});
  // Samples write disjoint output slices and each runs the exact serial
  // arithmetic, so the batch loop parallelizes with bitwise-identical
  // results at any thread count.  The gemm below notices the enclosing
  // region and stays serial, avoiding nested-pool oversubscription; a
  // single-sample batch (n == 1, the streaming-inference shape) keeps
  // gemm's own column-chunk parallelism instead.
  parallel_for(0, n, 1, [&](std::int64_t s64) {
    const int s = static_cast<int>(s64);
    float* cols = im2col_scratch(static_cast<std::size_t>(col_rows) *
                                 col_cols);
    im2col(x.data() + static_cast<std::size_t>(s) * in_ch_ * h * w, in_ch_,
           h, w, kernel_, stride_, pad_, oh, ow, cols);
    // y_s = W_flat [OC x col_rows] * cols [col_rows x col_cols]
    float* ys = y.data() +
                static_cast<std::size_t>(s) * out_ch_ * oh * ow;
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float b = bias_.value[static_cast<std::size_t>(oc)];
      float* dst = ys + static_cast<std::size_t>(oc) * col_cols;
      for (int j = 0; j < col_cols; ++j) dst[j] = b;
    }
    gemm_acc(weight_.value.data(), cols, ys, out_ch_, col_rows,
             col_cols);
  });
  return y;
}

Tensor Conv2d::backward(const Tensor& grad_out) {
  MMHAND_CHECK(!cached_input_.empty(), "Conv2d backward before forward");
  const Tensor& x = cached_input_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == out_ch_ && grad_out.dim(2) == oh &&
                   grad_out.dim(3) == ow,
               "Conv2d grad shape");

  const int col_rows = in_ch_ * kernel_ * kernel_;
  const int col_cols = oh * ow;
  std::vector<float> cols(static_cast<std::size_t>(col_rows) * col_cols);
  std::vector<float> dcols(cols.size());

  Tensor grad_in = Tensor::zeros(x.shape());
  // Stays serial: every sample accumulates into the shared weight/bias
  // gradients, and a deterministic accumulation order is part of the
  // reproducibility contract.
  for (int s = 0; s < n; ++s) {
    // Rebuild the column matrix (cheaper than caching it per sample).
    im2col(x.data() + static_cast<std::size_t>(s) * in_ch_ * h * w, in_ch_,
           h, w, kernel_, stride_, pad_, oh, ow, cols.data());
    const float* gs = grad_out.data() +
                      static_cast<std::size_t>(s) * out_ch_ * oh * ow;
    for (int oc = 0; oc < out_ch_; ++oc) {
      const float* g = gs + static_cast<std::size_t>(oc) * col_cols;
      float& db = bias_.grad[static_cast<std::size_t>(oc)];
      for (int j = 0; j < col_cols; ++j) db += g[j];
    }
    // dW += gs [OC x col_cols] * cols^T.
    gemm_a_bt_acc(gs, cols.data(), weight_.grad.data(), out_ch_, col_cols,
                  col_rows);
    // dcols = W^T [col_rows x OC] * gs [OC x col_cols]
    std::fill(dcols.begin(), dcols.end(), 0.0f);
    gemm_at_b_acc(weight_.value.data(), gs, dcols.data(), col_rows, out_ch_,
                  col_cols);
    // col2im accumulate into grad_in.
    std::size_t r = 0;
    for (int c = 0; c < in_ch_; ++c)
      for (int ki = 0; ki < kernel_; ++ki)
        for (int kj = 0; kj < kernel_; ++kj) {
          const float* row = dcols.data() + r * col_cols;
          ++r;
          std::size_t idx = 0;
          for (int i = 0; i < oh; ++i) {
            const int src_i = i * stride_ + ki - pad_;
            if (src_i < 0 || src_i >= h) {
              idx += static_cast<std::size_t>(ow);
              continue;
            }
            for (int j = 0; j < ow; ++j, ++idx) {
              const int src_j = j * stride_ + kj - pad_;
              if (src_j >= 0 && src_j < w)
                grad_in.at(s, c, src_i, src_j) += row[idx];
            }
          }
        }
  }
  return grad_in;
}

ConvTranspose2d::ConvTranspose2d(int in_channels, int out_channels,
                                 int kernel, int stride, int pad, Rng& rng)
    : in_ch_(in_channels),
      out_ch_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Tensor::randn(
                  {in_channels, out_channels, kernel, kernel}, rng,
                  std::sqrt(2.0 / (in_channels * kernel * kernel))),
              "deconv.weight"),
      bias_(Tensor::zeros({out_channels}), "deconv.bias") {
  MMHAND_CHECK(in_channels >= 1 && out_channels >= 1, "deconv channels");
  MMHAND_CHECK(kernel >= 1 && stride >= 1 && pad >= 0, "deconv geometry");
}

Tensor ConvTranspose2d::forward(const Tensor& x, bool training) {
  MMHAND_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
               "deconv expects [N, " << in_ch_ << ", H, W]");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(oh >= 1 && ow >= 1, "deconv output collapsed");
  if (training) cached_input_ = x;

  // Pack each phase's weight slice [OC x IC*Ti*Tj] once per call, in the
  // phase order the sample loop below walks (weights change in training).
  const int st = stride_;
  float* packed = im2col_scratch(weight_.value.numel(), /*slot=*/1);
  const float* wt = weight_.value.data();
  std::size_t woff = 0;
  for (int ri = 0; ri < st; ++ri)
    for (int rj = 0; rj < st; ++rj) {
      const Phase pi = deconv_phase(ri, oh, kernel_, st, pad_);
      const Phase pj = deconv_phase(rj, ow, kernel_, st, pad_);
      for (int oc = 0; oc < out_ch_; ++oc)
        for (int c = 0; c < in_ch_; ++c)
          for (int ti = 0; ti < pi.taps; ++ti)
            for (int tj = 0; tj < pj.taps; ++tj)
              packed[woff++] =
                  wt[((static_cast<std::size_t>(c) * out_ch_ + oc) * kernel_ +
                      (pi.k_top - ti * st)) *
                         kernel_ +
                     (pj.k_top - tj * st)];
    }

  Tensor y({n, out_ch_, oh, ow});
  const std::size_t plane = static_cast<std::size_t>(h) * w;
  // Same sample fan-out as Conv2d::forward: disjoint output slices, serial
  // arithmetic per sample, gemm's own parallelism when n == 1.
  parallel_for(0, n, 1, [&](std::int64_t s64) {
    const std::size_t s = static_cast<std::size_t>(s64);
    const float* xs = x.data() + s * in_ch_ * plane;
    float* ys = y.data() + s * out_ch_ * oh * ow;
    const float* wp = packed;
    for (int ri = 0; ri < st; ++ri)
      for (int rj = 0; rj < st; ++rj) {
        const Phase pi = deconv_phase(ri, oh, kernel_, st, pad_);
        const Phase pj = deconv_phase(rj, ow, kernel_, st, pad_);
        const int rows = in_ch_ * pi.taps * pj.taps;
        const int cols_n = pi.outputs * pj.outputs;
        const float* wphase = wp;
        wp += static_cast<std::size_t>(out_ch_) * rows;
        if (cols_n == 0) continue;
        float* cols = im2col_scratch(
            static_cast<std::size_t>(rows + out_ch_) * cols_n);
        float* row = cols;
        for (int c = 0; c < in_ch_; ++c)
          for (int ti = 0; ti < pi.taps; ++ti)
            for (int tj = 0; tj < pj.taps; ++tj, row += cols_n)
              gather_row(xs + c * plane, h, w, pi.outputs, pj.outputs, 1,
                         pi.off + ti, pj.off + tj, row);
        // Phase block [OC x cols_n] right after the columns: bias, then
        // the taps, then interleave into y.
        float* blk = row;
        for (int oc = 0; oc < out_ch_; ++oc)
          std::fill(blk + static_cast<std::size_t>(oc) * cols_n,
                    blk + static_cast<std::size_t>(oc + 1) * cols_n,
                    bias_.value[static_cast<std::size_t>(oc)]);
        gemm_acc(wphase, cols, blk, out_ch_, rows, cols_n);
        const float* src = blk;
        for (int oc = 0; oc < out_ch_; ++oc) {
          float* yc = ys + static_cast<std::size_t>(oc) * oh * ow;
          for (int qi = 0; qi < pi.outputs; ++qi) {
            float* yr = yc + static_cast<std::size_t>(ri + qi * st) * ow + rj;
            for (int qj = 0; qj < pj.outputs; ++qj) yr[qj * st] = *src++;
          }
        }
      }
  });
  return y;
}

Tensor ConvTranspose2d::backward(const Tensor& grad_out) {
  MMHAND_CHECK(!cached_input_.empty(), "deconv backward before forward");
  const Tensor& x = cached_input_;
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const int oh = out_extent(h), ow = out_extent(w);
  MMHAND_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == n &&
                   grad_out.dim(1) == out_ch_ && grad_out.dim(2) == oh &&
                   grad_out.dim(3) == ow,
               "deconv grad shape");

  // Bias gradient.
  for (int s = 0; s < n; ++s)
    for (int oc = 0; oc < out_ch_; ++oc) {
      float acc = 0.0f;
      for (int i = 0; i < oh; ++i)
        for (int j = 0; j < ow; ++j) acc += grad_out.at(s, oc, i, j);
      bias_.grad[static_cast<std::size_t>(oc)] += acc;
    }

  Tensor grad_in = Tensor::zeros(x.shape());
  for (int s = 0; s < n; ++s)
    for (int c = 0; c < in_ch_; ++c)
      for (int i = 0; i < h; ++i)
        for (int j = 0; j < w; ++j) {
          const float xv = x.at(s, c, i, j);
          float dx = 0.0f;
          for (int oc = 0; oc < out_ch_; ++oc) {
            const std::size_t wbase =
                (static_cast<std::size_t>(c) * out_ch_ + oc) *
                static_cast<std::size_t>(kernel_) * kernel_;
            const float* wk = weight_.value.data() + wbase;
            float* dwk = weight_.grad.data() + wbase;
            for (int ki = 0; ki < kernel_; ++ki) {
              const int oi = i * stride_ + ki - pad_;
              if (oi < 0 || oi >= oh) continue;
              for (int kj = 0; kj < kernel_; ++kj) {
                const int oj = j * stride_ + kj - pad_;
                if (oj < 0 || oj >= ow) continue;
                const float g = grad_out.at(s, oc, oi, oj);
                dx += g * wk[static_cast<std::size_t>(ki) * kernel_ + kj];
                dwk[static_cast<std::size_t>(ki) * kernel_ + kj] += g * xv;
              }
            }
          }
          grad_in.at(s, c, i, j) = dx;
        }
  return grad_in;
}

}  // namespace mmhand::nn

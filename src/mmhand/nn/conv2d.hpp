#pragma once

// 2-D convolution and transposed convolution over [N, C, H, W] maps.
//
// Both forwards run one row gather + `gemm_acc`.  Conv2d gathers im2col
// columns; ConvTranspose2d splits a stride-s output into s*s phases, each
// a small dense convolution of the input whose taps are gathered in the
// order a direct scatter would accumulate them, so results match the
// scatter bit for bit on finite input.

#include "mmhand/nn/layer.hpp"

namespace mmhand::nn {

class Conv2d : public Layer {
 public:
  Conv2d(int in_channels, int out_channels, int kernel, int stride, int pad,
         Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "Conv2d"; }

  /// Output spatial size for an input of extent `in`.
  int out_extent(int in) const { return (in + 2 * pad_ - kernel_) / stride_ + 1; }

 private:
  int in_ch_, out_ch_, kernel_, stride_, pad_;
  Parameter weight_;  ///< [OC, IC, K, K]
  Parameter bias_;    ///< [OC]
  Tensor cached_input_;
};

class ConvTranspose2d : public Layer {
 public:
  ConvTranspose2d(int in_channels, int out_channels, int kernel, int stride,
                  int pad, Rng& rng);

  Tensor forward(const Tensor& x, bool training) override;
  Tensor backward(const Tensor& grad_out) override;
  std::vector<Parameter*> parameters() override { return {&weight_, &bias_}; }
  std::string name() const override { return "ConvTranspose2d"; }

  int out_extent(int in) const {
    return (in - 1) * stride_ - 2 * pad_ + kernel_;
  }

 private:
  int in_ch_, out_ch_, kernel_, stride_, pad_;
  Parameter weight_;  ///< [IC, OC, K, K]
  Parameter bias_;    ///< [OC]
  Tensor cached_input_;
};

}  // namespace mmhand::nn

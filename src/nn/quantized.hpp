// Quantised inference-only layers: the int8 forward variants of the
// layers the int8 serving models run (Conv2d, Conv3d, ConvTranspose3d),
// built by one-shot conversion from their trained float counterparts.
// core::ZipNetInt8 mirrors the generator with them and
// baselines::SrcnnInt8 the SRCNN stack.
//
// Life cycle of every layer here:
//  1. CONSTRUCT from the float layer — an optional following BatchNorm is
//     folded into the weights and bias at this point (inference-mode BN is
//     a per-channel affine map, so W' = g·W, b' = g·(b − μ) + β with
//     g = γ/√(σ²+ε)); a LeakyReLU slope can be attached so the activation
//     fuses into the GEMM epilogue.
//  2. CALIBRATE: forward_calibrate() runs the float path over warm-up
//     batches, recording the input range each call (quant::RangeObserver).
//     Its outputs match the unfused float [conv → BN → LeakyReLU] stack to
//     float-associativity error (~1e-6), so warm-up predictions are
//     full-quality.
//  3. FREEZE: weights quantise to per-output-channel symmetric s8 and pack
//     ONCE into the PackedInt8B panel layout; activation scale/zero-point
//     fix from the observed range. After freeze() the float weight copy is
//     released and forward() runs the u8·s8 path: lower (im2col/vol2col) →
//     quantise A into workspace scratch → gemm_u8s8 with the dequant +
//     bias + LeakyReLU epilogue fused into the panel store.
//
// All scratch is carved from the thread's Workspace, so steady-state int8
// serving performs zero arena growth exactly like the float path.
#pragma once

#include <array>
#include <cstdint>

#include "src/common/workspace.hpp"
#include "src/nn/batchnorm.hpp"
#include "src/nn/conv2d.hpp"
#include "src/nn/conv3d.hpp"
#include "src/nn/conv_transpose3d.hpp"
#include "src/tensor/quant.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::nn {

namespace detail {

/// State shared by every quantised layer: the calibration observer and,
/// after freeze(), the packed weights + fused epilogue constants. The
/// epilogue arrays are zero-padded to the packed column span (npad) so the
/// GEMM can run its vector path over the padded destination even for
/// few-output-channel layers.
struct QuantCore {
  quant::RangeObserver in_range;
  quant::ActQuant act;
  PackedInt8B packed;
  std::vector<float> col_scale;  ///< act.scale × weight scale, npad entries
  std::vector<float> bias_pad;   ///< fused bias, npad entries (conv/dense)
  bool frozen = false;
};

}  // namespace detail

/// Quantised Conv2d (+ folded BatchNorm, + fused LeakyReLU).
class QuantConv2d {
 public:
  /// `bn` (nullable) is folded; `lrelu_alpha` = 1 means no activation.
  QuantConv2d(const Conv2d& conv, const BatchNorm* bn,
              float lrelu_alpha = 1.f);

  /// Float reference forward: records the input range for calibration.
  [[nodiscard]] Tensor forward_calibrate(const Tensor& input);
  /// Quantises + packs the weights and fixes the activation scale.
  void freeze();
  /// int8 forward (requires freeze()).
  [[nodiscard]] Tensor forward(const Tensor& input) const;
  [[nodiscard]] bool frozen() const { return core_.frozen; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }

 private:
  std::int64_t in_channels_, out_channels_;
  int kernel_, stride_, padding_;
  float alpha_;
  Tensor wf_;  ///< folded float weights (O, C·k·k); released by freeze()
  Tensor bf_;  ///< folded float bias (O)
  detail::QuantCore core_;
};

/// Quantised Conv3d (+ folded BatchNorm, + fused LeakyReLU).
class QuantConv3d {
 public:
  QuantConv3d(const Conv3d& conv, const BatchNorm* bn,
              float lrelu_alpha = 1.f);

  [[nodiscard]] Tensor forward_calibrate(const Tensor& input);
  void freeze();
  [[nodiscard]] Tensor forward(const Tensor& input) const;
  [[nodiscard]] bool frozen() const { return core_.frozen; }

 private:
  std::int64_t in_channels_, out_channels_;
  std::array<int, 3> kernel_, stride_, padding_;
  float alpha_;
  Tensor wf_;  ///< folded float weights (O, C·kd·kh·kw)
  Tensor bf_;
  detail::QuantCore core_;
};

/// Quantised ConvTranspose3d — the ZipNet upscaling stage's first layer.
class QuantConvTranspose3d {
 public:
  QuantConvTranspose3d(const ConvTranspose3d& deconv, const BatchNorm* bn,
                       float lrelu_alpha = 1.f);

  [[nodiscard]] Tensor forward_calibrate(const Tensor& input);
  void freeze();
  [[nodiscard]] Tensor forward(const Tensor& input) const;
  [[nodiscard]] bool frozen() const { return core_.frozen; }

 private:
  std::int64_t in_channels_, out_channels_;
  std::array<int, 3> kernel_, stride_, padding_;
  float alpha_;
  Tensor wf_;  ///< folded float weights (C, O·kd·kh·kw)
  Tensor bf_;
  detail::QuantCore core_;
};

}  // namespace mtsr::nn

// 2-D convolution layer. Stride-1 convolutions whose lowered product runs
// the panel kernel are computed directly from one zero-padded copy of the
// input (conv_stride1_into); the others lower with im2col and run one GEMM.
//
// Used by the discriminator's VGG blocks, the zipper convolutional blocks
// (the paper's 24-layer core operates on 2-D feature maps once temporal
// depth has been collapsed), the final convolutional blocks, and the SRCNN
// baseline.
#pragma once

#include "src/common/rng.hpp"
#include "src/common/workspace.hpp"
#include "src/nn/layer.hpp"

namespace mtsr::nn {

/// Conv2d over (N, C, H, W) inputs with zero padding.
///
/// Weight layout (out_channels, in_channels, kh, kw); optional bias per
/// output channel. Output spatial size: (H + 2p - k)/s + 1.
///
/// Workspace lifetimes: forward retains the zero-padded input (direct
/// convolution) or the whole-batch im2col matrix (strided convolutions and
/// those with C·k·k <= 32) in the thread's arena; backward lowers or
/// consumes it and rewinds. Inference loops that never call backward must
/// run inside a Workspace::Scope.
class Conv2d final : public Layer {
 public:
  /// Constructs with He-normal weights and zero bias.
  Conv2d(std::int64_t in_channels, std::int64_t out_channels, int kernel,
         int stride, int padding, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  void prepare_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] std::int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] int kernel() const { return kernel_; }
  [[nodiscard]] int stride() const { return stride_; }
  [[nodiscard]] int padding() const { return padding_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }
  /// Trained parameter values (read-only; used by the int8 conversion).
  [[nodiscard]] const Tensor& weight() const { return weight_.value; }
  [[nodiscard]] const Tensor& bias() const { return bias_.value; }

  /// Output spatial extent for a given input extent.
  [[nodiscard]] std::int64_t out_extent(std::int64_t in_extent) const;

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  int kernel_;
  int stride_;
  int padding_;
  bool has_bias_;

  Parameter weight_;
  Parameter bias_;

  // Forward caches, one slot per replica slice (slot 0 in direct mode):
  // each concurrent slice retains its own arena-resident forward state.
  struct Cache {
    Shape input_shape;
    // The padded input (N·C planes of (H+2p)×(W+2p)) when `padded`, else
    // the im2col matrix (C·k·k, N·oh·ow).
    WsMatrix kept;
    bool padded = false;
  };
  std::vector<Cache> cache_{1};
  Cache& cache_slot();
};

}  // namespace mtsr::nn

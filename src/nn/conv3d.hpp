// 3-D convolution layer.
//
// The paper's 3D upscaling blocks apply 3-D convolutions over
// (temporal depth, height, width) volumes to "jointly extract spatial and
// temporal features" from the S-frame coarse input. Stride-1 convolutions
// whose lowered product runs the panel kernel are computed directly from
// one zero-padded copy of the whole batch (conv_stride1_into); the others
// lower the batch to one (C·kd·kh·kw, N·od·oh·ow) matrix and run a single
// GEMM on the shared parallel engine. Forward retains the padded input or
// the lowered matrix in the thread's arena until backward rewinds it.
#pragma once

#include <array>

#include "src/common/rng.hpp"
#include "src/common/workspace.hpp"
#include "src/nn/layer.hpp"

namespace mtsr::nn {

/// Conv3d over (N, C, D, H, W) inputs with zero padding.
///
/// Weight layout (out_channels, in_channels, kd, kh, kw). Separate kernel /
/// stride / padding per axis so temporal and spatial extents can differ.
class Conv3d final : public Layer {
 public:
  /// kernel/stride/padding are (depth, height, width) triples.
  Conv3d(std::int64_t in_channels, std::int64_t out_channels,
         std::array<int, 3> kernel, std::array<int, 3> stride,
         std::array<int, 3> padding, Rng& rng, bool bias = true);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Parameter*> parameters() override;
  void prepare_replica_slots(int count) override;
  [[nodiscard]] std::string name() const override;

  /// Output extent along axis i (0=d, 1=h, 2=w) for a given input extent.
  [[nodiscard]] std::int64_t out_extent(int axis, std::int64_t in_extent) const;

  [[nodiscard]] std::int64_t in_channels() const { return in_channels_; }
  [[nodiscard]] std::int64_t out_channels() const { return out_channels_; }
  [[nodiscard]] const std::array<int, 3>& kernel() const { return kernel_; }
  [[nodiscard]] const std::array<int, 3>& stride() const { return stride_; }
  [[nodiscard]] const std::array<int, 3>& padding() const { return padding_; }
  [[nodiscard]] bool has_bias() const { return has_bias_; }
  /// Trained parameter values (read-only; used by the int8 conversion).
  [[nodiscard]] const Tensor& weight() const { return weight_.value; }
  [[nodiscard]] const Tensor& bias() const { return bias_.value; }

 private:
  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::array<int, 3> kernel_;
  std::array<int, 3> stride_;
  std::array<int, 3> padding_;
  bool has_bias_;

  Parameter weight_;
  Parameter bias_;

  // Forward caches, one slot per replica slice (slot 0 in direct mode).
  struct Cache {
    Shape input_shape;
    // The padded input (N·C padded volumes) when `padded`, else the
    // vol2col matrix (C·kd·kh·kw, N·od·oh·ow).
    WsMatrix kept;
    bool padded = false;
  };
  std::vector<Cache> cache_{1};
  Cache& cache_slot();
};

}  // namespace mtsr::nn

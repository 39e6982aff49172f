#include "src/nn/conv3d.hpp"

#include <sstream>

#include "src/common/check.hpp"
#include "src/nn/init.hpp"
#include "src/nn/replica.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::nn {

Conv3d::Conv3d(std::int64_t in_channels, std::int64_t out_channels,
               std::array<int, 3> kernel, std::array<int, 3> stride,
               std::array<int, 3> padding, Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_("weight",
              he_normal(Shape{out_channels, in_channels, kernel[0], kernel[1],
                              kernel[2]},
                        in_channels * kernel[0] * kernel[1] * kernel[2], rng)),
      bias_("bias", Tensor::zeros(Shape{out_channels})) {
  check(in_channels > 0 && out_channels > 0,
        "Conv3d requires positive channels");
  for (int i = 0; i < 3; ++i) {
    check(kernel[i] > 0 && stride[i] > 0 && padding[i] >= 0,
          "Conv3d bad hyper-parameters");
  }
}

std::int64_t Conv3d::out_extent(int axis, std::int64_t in_extent) const {
  return (in_extent + 2 * padding_[static_cast<std::size_t>(axis)] -
          kernel_[static_cast<std::size_t>(axis)]) /
             stride_[static_cast<std::size_t>(axis)] +
         1;
}

Tensor Conv3d::forward(const Tensor& input, bool /*training*/) {
  check(input.rank() == 5, "Conv3d expects (N, C, D, H, W) input");
  check(input.dim(1) == in_channels_, "Conv3d input channel mismatch");
  const std::int64_t n = input.dim(0), d = input.dim(2), h = input.dim(3),
                     w = input.dim(4);
  const std::int64_t od = out_extent(0, d), oh = out_extent(1, h),
                     ow = out_extent(2, w);
  check(od > 0 && oh > 0 && ow > 0, "Conv3d output would be empty");

  Cache& c = cache_slot();
  c.input_shape = input.shape();
  Workspace& ws = Workspace::tls();
  const std::int64_t taps =
      in_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  const std::int64_t positions = n * od * oh * ow;
  Tensor output(Shape{n, out_channels_, od, oh, ow});
  c.padded = stride_ == std::array<int, 3>{1, 1, 1} &&
             conv_stride1_direct(out_channels_, taps, positions);
  if (c.padded) {
    // Direct convolution from one zero-padded copy of the input, which is
    // retained in the arena until backward lowers it and rewinds.
    const std::int64_t dp = d + 2 * padding_[0], hp = h + 2 * padding_[1],
                       wp = w + 2 * padding_[2];
    c.kept = ws_matrix(ws, n * in_channels_, dp * hp * wp);
    pad_volume_into(input.data(), n * in_channels_, d, h, w, padding_[0],
                    padding_[1], padding_[2], c.kept.data);
    conv_stride1_into(c.kept.data, n, in_channels_, dp, hp, wp, kernel_[0],
                      kernel_[1], kernel_[2], weight_.value.data(),
                      out_channels_, has_bias_ ? bias_.value.data() : nullptr,
                      output.data());
    return output;
  }
  // Whole-batch lowering into the arena: one (C·kd·kh·kw, N·od·oh·ow)
  // matrix, one GEMM. Retained until backward rewinds it.
  c.kept = ws_matrix(ws, taps, positions);
  vol2col_batched_into(input.data(), n, in_channels_, d, h, w, kernel_[0],
                       kernel_[1], kernel_[2], stride_[0], stride_[1],
                       stride_[2], padding_[0], padding_[1], padding_[2],
                       c.kept.data);
  {
    Workspace::Scope scratch(ws);
    float* y = ws.alloc(out_channels_ * positions);  // (O, N*od*oh*ow)
    matmul_into(weight_.value.data(), c.kept.data, y, out_channels_, taps,
                positions);
    channel_major_to_batch_into(y, n, out_channels_, od * oh * ow,
                                output.data());
  }
  if (has_bias_) add_channel_bias(output, bias_.value);
  return output;
}

Tensor Conv3d::backward(const Tensor& grad_output) {
  Workspace& ws = Workspace::tls();
  Cache& c = cache_slot();
  check(!c.kept.empty() && ws.alive(c.kept.end),
        "Conv3d::backward called before forward (or forward's workspace "
        "scope was rewound)");
  check(grad_output.rank() == 5 && grad_output.dim(1) == out_channels_,
        "Conv3d::backward grad shape mismatch");
  const std::int64_t n = c.input_shape.dim(0), d = c.input_shape.dim(2),
                     h = c.input_shape.dim(3), w = c.input_shape.dim(4);
  check(grad_output.dim(0) == n && grad_output.dim(2) == out_extent(0, d) &&
            grad_output.dim(3) == out_extent(1, h) &&
            grad_output.dim(4) == out_extent(2, w),
        "Conv3d::backward grad geometry does not match forward");
  const std::int64_t inner =
      grad_output.dim(2) * grad_output.dim(3) * grad_output.dim(4);
  const std::int64_t rows =
      in_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  const std::int64_t cols = n * inner;
  Tensor grad_input(c.input_shape);
  {
    Workspace::Scope scratch(ws);
    const float* lowered = c.kept.data;
    if (c.padded) {
      // Lowering the padded input at pad 0 gives the forward's matrix.
      float* m = ws.alloc(rows * cols);
      vol2col_batched_into(c.kept.data, n, in_channels_, d + 2 * padding_[0],
                           h + 2 * padding_[1], w + 2 * padding_[2],
                           kernel_[0], kernel_[1], kernel_[2], 1, 1, 1, 0, 0,
                           0, m);
      lowered = m;
    }
    float* dy = ws.alloc(out_channels_ * cols);  // (O, N*od*oh*ow)
    batch_to_channel_major_into(grad_output.data(), n, out_channels_, inner,
                                dy);

    matmul_nt_into(dy, lowered, weight_.active_grad().data(), out_channels_,
                   cols, rows, /*accumulate=*/true);
    if (has_bias_) accumulate_channel_sums(grad_output, bias_.active_grad());

    float* dcols = ws.alloc(rows * cols);
    matmul_tn_into(weight_.value.data(), dy, dcols, out_channels_, rows,
                   cols);
    col2vol_batched_into(dcols, n, in_channels_, d, h, w, kernel_[0],
                         kernel_[1], kernel_[2], stride_[0], stride_[1],
                         stride_[2], padding_[0], padding_[1], padding_[2],
                         grad_input.data());
  }
  ws.rewind(c.kept.mark);  // retained input dead after dW/dX — LIFO release
  c.kept = WsMatrix{};
  return grad_input;
}

std::vector<Parameter*> Conv3d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Conv3d::Cache& Conv3d::cache_slot() {
  const auto i = static_cast<std::size_t>(replica::cache_index());
  check(i < cache_.size(),
        "Conv3d: replica slot not prepared (call prepare_replica_slots)");
  return cache_[i];
}

void Conv3d::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  if (cache_.size() < static_cast<std::size_t>(count)) {
    cache_.resize(static_cast<std::size_t>(count));
  }
}

std::string Conv3d::name() const {
  std::ostringstream out;
  out << "Conv3d(" << in_channels_ << "->" << out_channels_ << ", "
      << kernel_[0] << "x" << kernel_[1] << "x" << kernel_[2] << ")";
  return out.str();
}

}  // namespace mtsr::nn

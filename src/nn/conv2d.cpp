#include "src/nn/conv2d.hpp"

#include <sstream>

#include "src/common/check.hpp"
#include "src/nn/init.hpp"
#include "src/nn/replica.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               int kernel, int stride, int padding, Rng& rng, bool bias)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      has_bias_(bias),
      weight_("weight",
              he_normal(Shape{out_channels, in_channels, kernel, kernel},
                        in_channels * kernel * kernel, rng)),
      bias_("bias", Tensor::zeros(Shape{out_channels})) {
  check(in_channels > 0 && out_channels > 0, "Conv2d requires positive channels");
  check(kernel > 0 && stride > 0 && padding >= 0, "Conv2d bad hyper-parameters");
}

std::int64_t Conv2d::out_extent(std::int64_t in_extent) const {
  return (in_extent + 2 * padding_ - kernel_) / stride_ + 1;
}

Tensor Conv2d::forward(const Tensor& input, bool /*training*/) {
  check(input.rank() == 4, "Conv2d expects (N, C, H, W) input");
  check(input.dim(1) == in_channels_, "Conv2d input channel mismatch");
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = out_extent(h), ow = out_extent(w);
  check(oh > 0 && ow > 0, "Conv2d output would be empty");

  Cache& c = cache_slot();
  c.input_shape = input.shape();
  Workspace& ws = Workspace::tls();
  const std::int64_t taps = in_channels_ * kernel_ * kernel_;
  Tensor output(Shape{n, out_channels_, oh, ow});
  c.padded = stride_ == 1 && conv_stride1_direct(out_channels_, taps,
                                                 n * oh * ow);
  if (c.padded) {
    // Direct convolution from one zero-padded copy of the input, which is
    // retained in the arena until backward lowers it and rewinds.
    const std::int64_t hp = h + 2 * padding_, wp = w + 2 * padding_;
    c.kept = ws_matrix(ws, n * in_channels_, hp * wp);
    pad_volume_into(input.data(), n * in_channels_, 1, h, w, 0, padding_,
                    padding_, c.kept.data);
    conv_stride1_into(c.kept.data, n, in_channels_, 1, hp, wp, 1, kernel_,
                      kernel_, weight_.value.data(), out_channels_,
                      has_bias_ ? bias_.value.data() : nullptr,
                      output.data());
    return output;
  }
  // Whole-batch lowering into the arena: one (C·k·k, N·oh·ow) matrix, one
  // GEMM per step. The matrix is retained until backward rewinds it.
  c.kept = ws_matrix(ws, taps, n * oh * ow);
  im2col_batched_into(input.data(), n, in_channels_, h, w, kernel_, kernel_,
                      stride_, stride_, padding_, padding_, c.kept.data);
  {
    Workspace::Scope scratch(ws);
    float* y = ws.alloc(out_channels_ * c.kept.cols);  // (O, N*oh*ow)
    matmul_into(weight_.value.data(), c.kept.data, y, out_channels_, taps,
                c.kept.cols);
    channel_major_to_batch_into(y, n, out_channels_, oh * ow, output.data());
  }
  if (has_bias_) add_channel_bias(output, bias_.value);
  return output;
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  Workspace& ws = Workspace::tls();
  Cache& c = cache_slot();
  check(!c.kept.empty() && ws.alive(c.kept.end),
        "Conv2d::backward called before forward (or forward's workspace "
        "scope was rewound)");
  check(grad_output.rank() == 4 && grad_output.dim(1) == out_channels_,
        "Conv2d::backward grad shape mismatch");
  const std::int64_t n = c.input_shape.dim(0);
  const std::int64_t h = c.input_shape.dim(2), w = c.input_shape.dim(3);
  const std::int64_t oh = grad_output.dim(2), ow = grad_output.dim(3);
  check(grad_output.dim(0) == n && oh == out_extent(h) &&
            ow == out_extent(w),
        "Conv2d::backward grad geometry does not match forward");
  const std::int64_t rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t cols = n * oh * ow;
  Tensor grad_input(c.input_shape);
  {
    Workspace::Scope scratch(ws);
    const float* lowered = c.kept.data;
    if (c.padded) {
      // Lowering the padded input at pad 0 gives the forward's matrix.
      float* m = ws.alloc(rows * cols);
      im2col_batched_into(c.kept.data, n, in_channels_, h + 2 * padding_,
                          w + 2 * padding_, kernel_, kernel_, 1, 1, 0, 0, m);
      lowered = m;
    }
    // Channel-major view of the output gradient: (O, N*oh*ow).
    float* dy = ws.alloc(out_channels_ * cols);
    batch_to_channel_major_into(grad_output.data(), n, out_channels_,
                                oh * ow, dy);

    // Parameter gradients: dW accumulates straight into the active grad
    // buffer (one GEMM) — this slice's private slot inside a replicated
    // step — db is the per-channel sum reduction.
    matmul_nt_into(dy, lowered, weight_.active_grad().data(), out_channels_,
                   cols, rows, /*accumulate=*/true);
    if (has_bias_) accumulate_channel_sums(grad_output, bias_.active_grad());

    // Input gradient: one GEMM, then the batched col2im scatter.
    float* dcols = ws.alloc(rows * cols);  // (C*k*k, N*oh*ow)
    matmul_tn_into(weight_.value.data(), dy, dcols, out_channels_, rows,
                   cols);
    col2im_batched_into(dcols, n, in_channels_, h, w, kernel_, kernel_,
                        stride_, stride_, padding_, padding_,
                        grad_input.data());
  }
  // The retained input is dead: rewind its arena slice (LIFO — everything
  // allocated after it in this layer's forward is already gone).
  ws.rewind(c.kept.mark);
  c.kept = WsMatrix{};
  return grad_input;
}

std::vector<Parameter*> Conv2d::parameters() {
  if (has_bias_) return {&weight_, &bias_};
  return {&weight_};
}

Conv2d::Cache& Conv2d::cache_slot() {
  const auto i = static_cast<std::size_t>(replica::cache_index());
  check(i < cache_.size(),
        "Conv2d: replica slot not prepared (call prepare_replica_slots)");
  return cache_[i];
}

void Conv2d::prepare_replica_slots(int count) {
  Layer::prepare_replica_slots(count);
  if (cache_.size() < static_cast<std::size_t>(count)) {
    cache_.resize(static_cast<std::size_t>(count));
  }
}

std::string Conv2d::name() const {
  std::ostringstream out;
  out << "Conv2d(" << in_channels_ << "->" << out_channels_ << ", "
      << kernel_ << "x" << kernel_ << ", s" << stride_ << ", p" << padding_
      << ")";
  return out.str();
}

}  // namespace mtsr::nn

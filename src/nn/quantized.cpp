#include "src/nn/quantized.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"

namespace mtsr::nn {
namespace {

// Byte-typed carve from the float arena (the u8 A operand of gemm_u8s8).
std::uint8_t* ws_bytes(Workspace& ws, std::int64_t bytes) {
  return reinterpret_cast<std::uint8_t*>(ws.alloc((bytes + 3) / 4));
}

// Per-channel BN fold factors: g = γ/√(σ²+ε), shift = β − g·μ, so
// BN(y) = g·y + shift and the conv absorbs g into its weights and
// g·b + shift into its bias.
struct BnFold {
  std::vector<float> gain;   ///< per-channel weight multiplier
  std::vector<float> shift;  ///< per-channel bias offset (after gain)
};

BnFold bn_fold(const BatchNorm* bn, std::int64_t channels) {
  BnFold fold;
  fold.gain.assign(static_cast<std::size_t>(channels), 1.f);
  fold.shift.assign(static_cast<std::size_t>(channels), 0.f);
  if (bn == nullptr) return fold;
  check(bn->channels() == channels,
        "quantized: BatchNorm channel count does not match the conv");
  for (std::int64_t c = 0; c < channels; ++c) {
    const float g = bn->gamma().flat(c) /
                    std::sqrt(bn->running_var().flat(c) + bn->epsilon());
    fold.gain[static_cast<std::size_t>(c)] = g;
    fold.shift[static_cast<std::size_t>(c)] =
        bn->beta().flat(c) - g * bn->running_mean().flat(c);
  }
  return fold;
}

// Folded (W', b') for a CONV layout weight (O, per) — output channel rows.
void fold_conv(const Tensor& w, const Tensor& b, std::int64_t out_channels,
               std::int64_t per_channel, const BatchNorm* bn, Tensor& wf,
               Tensor& bf) {
  const BnFold fold = bn_fold(bn, out_channels);
  wf = Tensor(Shape{out_channels, per_channel});
  bf = Tensor(Shape{out_channels});
  for (std::int64_t o = 0; o < out_channels; ++o) {
    const float g = fold.gain[static_cast<std::size_t>(o)];
    const float* src = w.data() + o * per_channel;
    float* dst = wf.data() + o * per_channel;
    for (std::int64_t i = 0; i < per_channel; ++i) dst[i] = src[i] * g;
    bf.flat(o) = b.flat(o) * g + fold.shift[static_cast<std::size_t>(o)];
  }
}

// Folded (W', b') for a DECONV layout weight (C, O·kvol) — output channel o
// occupies the strided slices [:, o·kvol .. (o+1)·kvol).
void fold_deconv(const Tensor& w, const Tensor& b, std::int64_t in_channels,
                 std::int64_t out_channels, std::int64_t kvol,
                 const BatchNorm* bn, Tensor& wf, Tensor& bf) {
  const BnFold fold = bn_fold(bn, out_channels);
  const std::int64_t taps = out_channels * kvol;
  wf = Tensor(Shape{in_channels, taps});
  bf = Tensor(Shape{out_channels});
  for (std::int64_t ci = 0; ci < in_channels; ++ci) {
    const float* src = w.data() + ci * taps;
    float* dst = wf.data() + ci * taps;
    for (std::int64_t o = 0; o < out_channels; ++o) {
      const float g = fold.gain[static_cast<std::size_t>(o)];
      for (std::int64_t t = 0; t < kvol; ++t) {
        dst[o * kvol + t] = src[o * kvol + t] * g;
      }
    }
  }
  for (std::int64_t o = 0; o < out_channels; ++o) {
    bf.flat(o) = b.flat(o) * fold.gain[static_cast<std::size_t>(o)] +
                 fold.shift[static_cast<std::size_t>(o)];
  }
}

// In-place LeakyReLU as max(y, α·y) — the exact elementwise form of the
// fused GEMM epilogue, so float and int8 paths agree on the activation.
void apply_lrelu(Tensor& t, float alpha) {
  if (alpha == 1.f) return;
  float* p = t.data();
  parallel_for_chunks(t.size(), [&](std::int64_t b, std::int64_t e, int) {
    for (std::int64_t i = b; i < e; ++i) p[i] = std::max(p[i], p[i] * alpha);
  });
}

// Quantises + packs CONV-layout folded weights (O rows of K taps): B is the
// (K × O) transpose, per-column scales are the per-output-channel scales
// combined with the activation scale. Epilogue arrays are padded to npad so
// forward can run the GEMM over the padded destination.
void freeze_conv_core(const Tensor& wf, const Tensor& bf,
                      std::int64_t out_channels, std::int64_t k,
                      detail::QuantCore& core) {
  std::vector<std::int8_t> wq(
      static_cast<std::size_t>(out_channels * k));
  std::vector<float> scales(static_cast<std::size_t>(out_channels));
  quant::quantize_weights_per_channel(wf.data(), out_channels, k, wq.data(),
                                      scales.data(), /*mse_clip=*/true);
  std::vector<std::int8_t> bt(static_cast<std::size_t>(k * out_channels));
  for (std::int64_t o = 0; o < out_channels; ++o) {
    for (std::int64_t kk = 0; kk < k; ++kk) {
      bt[static_cast<std::size_t>(kk * out_channels + o)] =
          wq[static_cast<std::size_t>(o * k + kk)];
    }
  }
  core.packed = pack_b_s8(bt.data(), k, out_channels);
  core.col_scale.assign(static_cast<std::size_t>(core.packed.npad), 0.f);
  core.bias_pad.assign(static_cast<std::size_t>(core.packed.npad), 0.f);
  for (std::int64_t o = 0; o < out_channels; ++o) {
    core.col_scale[static_cast<std::size_t>(o)] =
        core.act.scale * scales[static_cast<std::size_t>(o)];
    core.bias_pad[static_cast<std::size_t>(o)] = bf.flat(o);
  }
  core.frozen = true;
}

// Quantises + packs DECONV-layout folded weights (C rows of O·kvol taps):
// B is the (C × taps) matrix itself, per-column scales expand the
// per-output-channel scale across that channel's kvol tap columns.
void freeze_deconv_core(const Tensor& wf, std::int64_t in_channels,
                        std::int64_t out_channels, std::int64_t kvol,
                        detail::QuantCore& core) {
  const std::int64_t taps = out_channels * kvol;
  // Rearrange to (O, C·kvol) rows so the per-channel quantiser sees each
  // output channel contiguously.
  std::vector<float> wr(static_cast<std::size_t>(out_channels * in_channels *
                                                 kvol));
  for (std::int64_t ci = 0; ci < in_channels; ++ci) {
    for (std::int64_t o = 0; o < out_channels; ++o) {
      std::memcpy(
          wr.data() + (o * in_channels + ci) * kvol,
          wf.data() + ci * taps + o * kvol,
          static_cast<std::size_t>(kvol) * sizeof(float));
    }
  }
  std::vector<std::int8_t> wq(wr.size());
  std::vector<float> scales(static_cast<std::size_t>(out_channels));
  quant::quantize_weights_per_channel(wr.data(), out_channels,
                                      in_channels * kvol, wq.data(),
                                      scales.data(), /*mse_clip=*/true);
  std::vector<std::int8_t> bt(
      static_cast<std::size_t>(in_channels * taps));
  for (std::int64_t ci = 0; ci < in_channels; ++ci) {
    for (std::int64_t o = 0; o < out_channels; ++o) {
      std::memcpy(bt.data() + ci * taps + o * kvol,
                  wq.data() + (o * in_channels + ci) * kvol,
                  static_cast<std::size_t>(kvol));
    }
  }
  core.packed = pack_b_s8(bt.data(), in_channels, taps);
  core.col_scale.assign(static_cast<std::size_t>(core.packed.npad), 0.f);
  for (std::int64_t o = 0; o < out_channels; ++o) {
    for (std::int64_t t = 0; t < kvol; ++t) {
      core.col_scale[static_cast<std::size_t>(o * kvol + t)] =
          core.act.scale * scales[static_cast<std::size_t>(o)];
    }
  }
  core.frozen = true;
}

void begin_freeze(detail::QuantCore& core, const char* who) {
  check(!core.frozen, std::string(who) + ": already frozen");
  check(core.in_range.seen,
        std::string(who) +
            ": freeze() before any forward_calibrate() pass — run at least "
            "one warm-up batch");
  core.act = quant::choose_act_quant(core.in_range);
}

// Scatters deconv GEMM output rows — one row of O·kd·kh·kw dequantised
// taps per INPUT position, row stride ld — straight into the
// (N, O, od, oh, ow) output volume. This is the row-major adjoint of
// col2vol, so the int8 deconv never materialises the (taps × M)
// transpose the float lowering layout would need. Tasks are (sample,
// output channel) pairs with disjoint output planes; the scatter order
// within a plane is fixed, so results are pool-size independent. Pass
// d = kd = stride_d = 1, pad_d = 0 for the 2-D case.
void scatter_rows_to_volume(const float* rows, std::int64_t ld,
                            std::int64_t n, std::int64_t d, std::int64_t h,
                            std::int64_t w, std::int64_t out_channels,
                            std::int64_t od, std::int64_t oh, std::int64_t ow,
                            const std::array<int, 3>& kernel,
                            const std::array<int, 3>& stride,
                            const std::array<int, 3>& padding, float* out) {
  const std::int64_t kvol =
      static_cast<std::int64_t>(kernel[0]) * kernel[1] * kernel[2];
  const std::int64_t inner = d * h * w;
  parallel_for(n * out_channels, [&](std::int64_t task) {
    const std::int64_t i = task / out_channels;
    const std::int64_t o = task % out_channels;
    float* plane = out + (i * out_channels + o) * od * oh * ow;
    std::memset(plane, 0,
                static_cast<std::size_t>(od * oh * ow) * sizeof(float));
    for (std::int64_t z = 0; z < d; ++z) {
      const std::int64_t z0 = z * stride[0] - padding[0];
      const int kz_lo = static_cast<int>(std::max<std::int64_t>(0, -z0));
      const int kz_hi =
          static_cast<int>(std::min<std::int64_t>(kernel[0], od - z0));
      for (std::int64_t y = 0; y < h; ++y) {
        const std::int64_t y0 = y * stride[1] - padding[1];
        const int ky_lo = static_cast<int>(std::max<std::int64_t>(0, -y0));
        const int ky_hi =
            static_cast<int>(std::min<std::int64_t>(kernel[1], oh - y0));
        for (std::int64_t x = 0; x < w; ++x) {
          const std::int64_t x0 = x * stride[2] - padding[2];
          const int kx_lo = static_cast<int>(std::max<std::int64_t>(0, -x0));
          const int kx_hi =
              static_cast<int>(std::min<std::int64_t>(kernel[2], ow - x0));
          const float* taps =
              rows + (i * inner + (z * h + y) * w + x) * ld + o * kvol;
          for (int kz = kz_lo; kz < kz_hi; ++kz) {
            for (int ky = ky_lo; ky < ky_hi; ++ky) {
              float* orow =
                  plane + ((z0 + kz) * oh + (y0 + ky)) * ow + x0;
              const float* trow = taps + (kz * kernel[1] + ky) * kernel[2];
              for (int kx = kx_lo; kx < kx_hi; ++kx) orow[kx] += trow[kx];
            }
          }
        }
      }
    }
  });
}

// CONV epilogue output (M × npad row stride, sample-major rows) →
// (N, O, inner) batch: a strided per-sample transpose.
void rows_to_batch(const float* cf, std::int64_t ld, std::int64_t n,
                   std::int64_t inner, std::int64_t out_channels,
                   float* dst) {
  for (std::int64_t i = 0; i < n; ++i) {
    const float* src = cf + i * inner * ld;
    float* out = dst + i * out_channels * inner;
    parallel_for_grain(inner, 256,
                       [&](std::int64_t p0, std::int64_t p1, int) {
      constexpr std::int64_t kTile = 32;
      for (std::int64_t pt = p0; pt < p1; pt += kTile) {
        const std::int64_t pmax = std::min(p1, pt + kTile);
        for (std::int64_t o = 0; o < out_channels; ++o) {
          float* orow = out + o * inner;
          for (std::int64_t pos = pt; pos < pmax; ++pos) {
            orow[pos] = src[pos * ld + o];
          }
        }
      }
    });
  }
}

}  // namespace

// ---- QuantConv2d -----------------------------------------------------------

QuantConv2d::QuantConv2d(const Conv2d& conv, const BatchNorm* bn,
                         float lrelu_alpha)
    : in_channels_(conv.in_channels()),
      out_channels_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      padding_(conv.padding()),
      alpha_(lrelu_alpha) {
  const std::int64_t k = in_channels_ * kernel_ * kernel_;
  fold_conv(conv.weight(), conv.bias(), out_channels_, k, bn, wf_, bf_);
}

Tensor QuantConv2d::forward_calibrate(const Tensor& input) {
  check(!core_.frozen, "QuantConv2d: forward_calibrate after freeze");
  check(input.rank() == 4 && input.dim(1) == in_channels_,
        "QuantConv2d: bad input shape");
  core_.in_range.observe(input);
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = (h + 2 * padding_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * padding_ - kernel_) / stride_ + 1;
  const std::int64_t k = in_channels_ * kernel_ * kernel_;
  const std::int64_t m = n * oh * ow;
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* cols = ws.alloc(k * m);
  im2col_batched_into(input.data(), n, in_channels_, h, w, kernel_, kernel_,
                      stride_, stride_, padding_, padding_, cols);
  float* y = ws.alloc(out_channels_ * m);
  matmul_into(wf_.data(), cols, y, out_channels_, k, m);
  Tensor output(Shape{n, out_channels_, oh, ow});
  channel_major_to_batch_into(y, n, out_channels_, oh * ow, output.data());
  add_channel_bias(output, bf_);
  apply_lrelu(output, alpha_);
  return output;
}

void QuantConv2d::freeze() {
  begin_freeze(core_, "QuantConv2d");
  freeze_conv_core(wf_, bf_, out_channels_,
                   in_channels_ * kernel_ * kernel_, core_);
  wf_ = Tensor();  // weights live on as packed s8 only
}

Tensor QuantConv2d::forward(const Tensor& input) const {
  check(core_.frozen, "QuantConv2d::forward before freeze()");
  check(input.rank() == 4 && input.dim(1) == in_channels_,
        "QuantConv2d: bad input shape");
  const std::int64_t n = input.dim(0), h = input.dim(2), w = input.dim(3);
  const std::int64_t oh = (h + 2 * padding_ - kernel_) / stride_ + 1;
  const std::int64_t ow = (w + 2 * padding_ - kernel_) / stride_ + 1;
  check(oh > 0 && ow > 0, "QuantConv2d: output would be empty");
  const std::int64_t k = in_channels_ * kernel_ * kernel_;
  const std::int64_t m = n * oh * ow;
  const std::int64_t kpad = core_.packed.kpad();
  const std::int64_t npad = core_.packed.npad;
  Tensor output(Shape{n, out_channels_, oh, ow});
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  // Quantise the small input image once, then lower BYTES: the k²-fold
  // im2col duplication moves 4x less memory than the float path and the
  // A-operand transpose becomes a byte transpose.
  std::uint8_t* qin = ws_bytes(ws, input.size());
  quant::quantize_u8(input.data(), input.size(), core_.act, qin);
  std::uint8_t* qcols = ws_bytes(ws, k * m);
  im2col_batched_u8_into(qin, n, in_channels_, h, w, kernel_, kernel_,
                         stride_, stride_, padding_, padding_,
                         static_cast<std::uint8_t>(core_.act.zero_point),
                         qcols);
  std::uint8_t* aq = ws_bytes(ws, m * kpad);
  transpose_u8_into(qcols, k, m, aq, kpad);
  float* cf = ws.alloc(m * npad);
  const QuantEpilogue ep{core_.col_scale.data(), core_.act.zero_point,
                         core_.bias_pad.data(), alpha_};
  gemm_u8s8(aq, kpad, core_.packed, m, ep, cf, npad);
  rows_to_batch(cf, npad, n, oh * ow, out_channels_, output.data());
  return output;
}

// ---- QuantConv3d -----------------------------------------------------------

QuantConv3d::QuantConv3d(const Conv3d& conv, const BatchNorm* bn,
                         float lrelu_alpha)
    : in_channels_(conv.in_channels()),
      out_channels_(conv.out_channels()),
      kernel_(conv.kernel()),
      stride_(conv.stride()),
      padding_(conv.padding()),
      alpha_(lrelu_alpha) {
  const std::int64_t k =
      in_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  fold_conv(conv.weight(), conv.bias(), out_channels_, k, bn, wf_, bf_);
}

Tensor QuantConv3d::forward_calibrate(const Tensor& input) {
  check(!core_.frozen, "QuantConv3d: forward_calibrate after freeze");
  check(input.rank() == 5 && input.dim(1) == in_channels_,
        "QuantConv3d: bad input shape");
  core_.in_range.observe(input);
  const std::int64_t n = input.dim(0), d = input.dim(2), h = input.dim(3),
                     w = input.dim(4);
  const std::int64_t od = (d + 2 * padding_[0] - kernel_[0]) / stride_[0] + 1;
  const std::int64_t oh = (h + 2 * padding_[1] - kernel_[1]) / stride_[1] + 1;
  const std::int64_t ow = (w + 2 * padding_[2] - kernel_[2]) / stride_[2] + 1;
  const std::int64_t k =
      in_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  const std::int64_t m = n * od * oh * ow;
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* cols = ws.alloc(k * m);
  vol2col_batched_into(input.data(), n, in_channels_, d, h, w, kernel_[0],
                       kernel_[1], kernel_[2], stride_[0], stride_[1],
                       stride_[2], padding_[0], padding_[1], padding_[2],
                       cols);
  float* y = ws.alloc(out_channels_ * m);
  matmul_into(wf_.data(), cols, y, out_channels_, k, m);
  Tensor output(Shape{n, out_channels_, od, oh, ow});
  channel_major_to_batch_into(y, n, out_channels_, od * oh * ow,
                              output.data());
  add_channel_bias(output, bf_);
  apply_lrelu(output, alpha_);
  return output;
}

void QuantConv3d::freeze() {
  begin_freeze(core_, "QuantConv3d");
  freeze_conv_core(wf_, bf_, out_channels_,
                   in_channels_ * kernel_[0] * kernel_[1] * kernel_[2],
                   core_);
  wf_ = Tensor();
}

Tensor QuantConv3d::forward(const Tensor& input) const {
  check(core_.frozen, "QuantConv3d::forward before freeze()");
  check(input.rank() == 5 && input.dim(1) == in_channels_,
        "QuantConv3d: bad input shape");
  const std::int64_t n = input.dim(0), d = input.dim(2), h = input.dim(3),
                     w = input.dim(4);
  const std::int64_t od = (d + 2 * padding_[0] - kernel_[0]) / stride_[0] + 1;
  const std::int64_t oh = (h + 2 * padding_[1] - kernel_[1]) / stride_[1] + 1;
  const std::int64_t ow = (w + 2 * padding_[2] - kernel_[2]) / stride_[2] + 1;
  check(od > 0 && oh > 0 && ow > 0, "QuantConv3d: output would be empty");
  const std::int64_t k =
      in_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  const std::int64_t m = n * od * oh * ow;
  const std::int64_t kpad = core_.packed.kpad();
  const std::int64_t npad = core_.packed.npad;
  Tensor output(Shape{n, out_channels_, od, oh, ow});
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint8_t* qin = ws_bytes(ws, input.size());
  quant::quantize_u8(input.data(), input.size(), core_.act, qin);
  std::uint8_t* qcols = ws_bytes(ws, k * m);
  vol2col_batched_u8_into(qin, n, in_channels_, d, h, w, kernel_[0],
                          kernel_[1], kernel_[2], stride_[0], stride_[1],
                          stride_[2], padding_[0], padding_[1], padding_[2],
                          static_cast<std::uint8_t>(core_.act.zero_point),
                          qcols);
  std::uint8_t* aq = ws_bytes(ws, m * kpad);
  transpose_u8_into(qcols, k, m, aq, kpad);
  float* cf = ws.alloc(m * npad);
  const QuantEpilogue ep{core_.col_scale.data(), core_.act.zero_point,
                         core_.bias_pad.data(), alpha_};
  gemm_u8s8(aq, kpad, core_.packed, m, ep, cf, npad);
  rows_to_batch(cf, npad, n, od * oh * ow, out_channels_, output.data());
  return output;
}

// ---- QuantConvTranspose3d --------------------------------------------------

QuantConvTranspose3d::QuantConvTranspose3d(const ConvTranspose3d& deconv,
                                           const BatchNorm* bn,
                                           float lrelu_alpha)
    : in_channels_(deconv.in_channels()),
      out_channels_(deconv.out_channels()),
      kernel_(deconv.kernel()),
      stride_(deconv.stride()),
      padding_(deconv.padding()),
      alpha_(lrelu_alpha) {
  fold_deconv(deconv.weight(), deconv.bias(), in_channels_, out_channels_,
              static_cast<std::int64_t>(kernel_[0]) * kernel_[1] * kernel_[2],
              bn, wf_, bf_);
}

Tensor QuantConvTranspose3d::forward_calibrate(const Tensor& input) {
  check(!core_.frozen, "QuantConvTranspose3d: forward_calibrate after freeze");
  check(input.rank() == 5 && input.dim(1) == in_channels_,
        "QuantConvTranspose3d: bad input shape");
  core_.in_range.observe(input);
  const std::int64_t n = input.dim(0), d = input.dim(2), h = input.dim(3),
                     w = input.dim(4);
  const std::int64_t od = (d - 1) * stride_[0] - 2 * padding_[0] + kernel_[0];
  const std::int64_t oh = (h - 1) * stride_[1] - 2 * padding_[1] + kernel_[1];
  const std::int64_t ow = (w - 1) * stride_[2] - 2 * padding_[2] + kernel_[2];
  const std::int64_t taps =
      out_channels_ * kernel_[0] * kernel_[1] * kernel_[2];
  const std::int64_t m = n * d * h * w;
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  float* x_cm = ws.alloc(in_channels_ * m);
  batch_to_channel_major_into(input.data(), n, in_channels_, d * h * w, x_cm);
  float* cols = ws.alloc(taps * m);
  matmul_tn_into(wf_.data(), x_cm, cols, in_channels_, taps, m);
  Tensor output(Shape{n, out_channels_, od, oh, ow});
  col2vol_batched_into(cols, n, out_channels_, od, oh, ow, kernel_[0],
                       kernel_[1], kernel_[2], stride_[0], stride_[1],
                       stride_[2], padding_[0], padding_[1], padding_[2],
                       output.data());
  add_channel_bias(output, bf_);
  apply_lrelu(output, alpha_);
  return output;
}

void QuantConvTranspose3d::freeze() {
  begin_freeze(core_, "QuantConvTranspose3d");
  freeze_deconv_core(
      wf_, in_channels_, out_channels_,
      static_cast<std::int64_t>(kernel_[0]) * kernel_[1] * kernel_[2], core_);
  wf_ = Tensor();
}

Tensor QuantConvTranspose3d::forward(const Tensor& input) const {
  check(core_.frozen, "QuantConvTranspose3d::forward before freeze()");
  check(input.rank() == 5 && input.dim(1) == in_channels_,
        "QuantConvTranspose3d: bad input shape");
  const std::int64_t n = input.dim(0), d = input.dim(2), h = input.dim(3),
                     w = input.dim(4);
  const std::int64_t od = (d - 1) * stride_[0] - 2 * padding_[0] + kernel_[0];
  const std::int64_t oh = (h - 1) * stride_[1] - 2 * padding_[1] + kernel_[1];
  const std::int64_t ow = (w - 1) * stride_[2] - 2 * padding_[2] + kernel_[2];
  check(od > 0 && oh > 0 && ow > 0,
        "QuantConvTranspose3d: output would be empty");
  const std::int64_t m = n * d * h * w;
  const std::int64_t kpad = core_.packed.kpad();
  const std::int64_t npad = core_.packed.npad;
  Tensor output(Shape{n, out_channels_, od, oh, ow});
  Workspace& ws = Workspace::tls();
  Workspace::Scope scope(ws);
  std::uint8_t* aq = ws_bytes(ws, m * kpad);
  quant::quantize_batch_transpose_u8(input.data(), n, in_channels_, d * h * w,
                                     core_.act, aq, kpad);
  float* cf = ws.alloc(m * npad);
  const QuantEpilogue ep{core_.col_scale.data(), core_.act.zero_point,
                         nullptr, 1.f};
  gemm_u8s8(aq, kpad, core_.packed, m, ep, cf, npad);
  scatter_rows_to_volume(cf, npad, n, d, h, w, out_channels_, od, oh, ow,
                         kernel_, stride_, padding_, output.data());
  add_channel_bias(output, bf_);
  apply_lrelu(output, alpha_);
  return output;
}

}  // namespace mtsr::nn

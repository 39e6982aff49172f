// Quantisation primitives for the int8 inference path.
//
// The deployment story of the paper (Section 6) is inference on
// gateway-class hardware, where float32 GEMM bandwidth is the dominant
// cost. The int8 path cuts weight memory traffic 4x and runs the products
// through the u8·s8 microkernel (tensor_ops.hpp: gemm_u8s8). This header
// holds the numeric conventions every quantised layer shares:
//
//  * Weights: per-output-channel SYMMETRIC int8. Each output channel o gets
//    scale s_w[o] = max|W[o,:]| / kWeightQmax and stores round(w / s_w[o]).
//    The range is ±63 (7 bits), not ±127: it guarantees that the AVX2
//    maddubs path — which accumulates u8·s8 product PAIRS in int16 — can
//    never saturate (255·63·2 = 32130 < 32767), so every SIMD kernel is
//    bit-exact against the scalar s32 reference.
//  * Activations: per-tensor ASYMMETRIC uint8 with a zero point,
//    q = clamp(round(x / scale) + zero_point, 0, 255), calibrated from the
//    min/max observed over a handful of warm-up frames (RangeObserver).
//    The range always includes 0.0 so zero padding introduced by the conv
//    lowering quantises exactly to the zero point.
//
// Dequantisation of an s32 accumulator is
//    x̂·ŵ = s_a · s_w[o] · (acc - zero_point · Σ_k w_q[k,o])
// — the zero-point compensation term is a per-column constant the packed-B
// container precomputes at pack time (PackedInt8B::colsum).
#pragma once

#include <cstdint>

#include "src/tensor/tensor.hpp"

namespace mtsr::quant {

/// Weight quantisation range: ±63 (7 bits). See header comment — this is
/// what keeps the maddubs int16 pair accumulation saturation-free and the
/// SIMD kernels bit-exact against the scalar reference.
inline constexpr int kWeightQmax = 63;

/// Per-tensor asymmetric uint8 activation quantisation parameters.
struct ActQuant {
  float scale = 1.f;
  std::int32_t zero_point = 0;
};

/// Running min/max plus first/second moments over every tensor observed
/// during calibration. The scale chooser uses the full min/max (see
/// choose_act_quant); the moments are kept for range diagnostics.
struct RangeObserver {
  float lo = 0.f;
  float hi = 0.f;
  double sum = 0.0;
  double sum_sq = 0.0;
  std::int64_t count = 0;
  bool seen = false;

  void observe(const float* x, std::int64_t n);
  void observe(const Tensor& t) { observe(t.data(), t.size()); }
};

/// Chooses activation quantisation parameters for the range [lo, hi]. The
/// range is widened to include 0 (so lowering padding is exact) and
/// degenerate ranges collapse to a safe non-zero scale.
[[nodiscard]] ActQuant choose_act_quant(float lo, float hi);

/// Calibration from an observer: the full observed min/max. Deliberately
/// NOT tail-clipped — mobile-traffic activations are heavy-tailed by
/// design (hotspots are the signal), and clipping the range at a few
/// sigma saturates exactly the cells NRMSE weights most (measured: ~3x
/// worse int8 error). The moments stay available for diagnostics.
[[nodiscard]] ActQuant choose_act_quant(const RangeObserver& observer);

/// q = clamp(round(x / scale) + zero_point, 0, 255), round-half-up.
[[nodiscard]] std::uint8_t quantize_value(float x, const ActQuant& aq);

/// x̂ = scale * (q - zero_point).
[[nodiscard]] float dequantize_value(std::uint8_t q, const ActQuant& aq);

/// Element-wise quantisation of `n` floats into uint8.
void quantize_u8(const float* x, std::int64_t n, const ActQuant& aq,
                 std::uint8_t* out);

/// Element-wise dequantisation.
void dequantize_u8(const std::uint8_t* q, std::int64_t n, const ActQuant& aq,
                   float* out);

/// Quantise-and-transpose: reads a row-major (rows × cols) float matrix and
/// writes the uint8 transpose (cols × rows) with each output row
/// zero-padded to `row_stride` bytes (row_stride >= rows; the tail padding
/// is the GEMM's k-alignment and multiplies against packed-B rows that are
/// themselves zero). The general float-source route to a gemm_u8s8 A
/// operand — the conv layers take the cheaper byte route instead
/// (quantize_u8 on the input image, then the u8 lowering + byte transpose
/// in tensor_ops.hpp), so use this when the float matrix already exists.
/// Tiled and pool-parallel; deterministic (element-wise independent).
void quantize_transpose_u8(const float* src, std::int64_t rows,
                           std::int64_t cols, const ActQuant& aq,
                           std::uint8_t* out, std::int64_t row_stride);

/// Per-sample quantise-and-transpose of an (n, c, inner) batch: output row
/// m = i*inner + pos holds the c channel values of sample i at position
/// pos, zero-padded to `row_stride`. The u8 A operand of the transposed-
/// convolution GEMM, produced straight from the layer input (no
/// channel-major float staging needed).
void quantize_batch_transpose_u8(const float* src, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 const ActQuant& aq, std::uint8_t* out,
                                 std::int64_t row_stride);

/// Per-output-channel symmetric weight quantisation: `w` is row-major
/// (channels × per_channel); row o is quantised to ±kWeightQmax with its
/// own scale written to scales[o]. A zero row gets scale 1 (all-zero
/// quantised values).
///
/// With `mse_clip` set (the layer conversion default) each channel's clip
/// threshold is grid-searched below max|w| for the minimum quantisation
/// MSE: a channel whose range is stretched by one outlier tap keeps a fine
/// step for the bulk and accepts a bounded clip error on the outlier.
/// Without it the scale is exactly max|w| / kWeightQmax (every value
/// round-trips within scale/2 — the documented contract).
void quantize_weights_per_channel(const float* w, std::int64_t channels,
                                  std::int64_t per_channel, std::int8_t* wq,
                                  float* scales, bool mse_clip = false);

}  // namespace mtsr::quant

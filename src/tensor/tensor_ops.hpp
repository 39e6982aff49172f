// Free-function tensor operations: matmul, im2col/col2im, padding, cropping,
// pooling and upsampling.
//
// These are the building blocks the src/nn layers are written against. Each
// hot op comes in two forms:
//
//  - the pure variant (value in, value out) validates its shape contract
//    and allocates the result tensor;
//  - the `_into` variant is destination-passing: it writes into a caller-
//    provided buffer (typically carved from the thread's Workspace arena)
//    and performs no allocation of its own beyond transient GEMM packing
//    scratch.
//
// The pure variants are thin wrappers over the `_into` cores, so both paths
// compute identical results. The matmul family runs a cache-blocked,
// packed-B panel kernel on the shared thread pool (src/common/parallel.hpp):
// the B matrix is packed once per (k-tile, j-tile) panel and shared across
// row chunks, cutting DRAM traffic on the short-and-wide products conv
// lowering produces. Every float product, whatever its k and whichever
// operand is transposed, runs that one kernel, whose per-element result is
// a fixed ascending-k fold: bit-identical for every pool size and for
// every split of the columns (windows) into products.
#pragma once

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.hpp"

namespace mtsr {

// ---- GEMM family -----------------------------------------------------------

/// C = A (m×k) * B (k×n). Both inputs must be rank-2.
[[nodiscard]] Tensor matmul(const Tensor& a, const Tensor& b);

/// C = Aᵀ (k×m) * B (k×n); the transpose is never exposed to the caller.
[[nodiscard]] Tensor matmul_tn(const Tensor& a, const Tensor& b);

/// C = A (m×k) * Bᵀ (n×k), computed as Cᵀ = B·Aᵀ through the matmul
/// kernel so that only A and C are transposed.
[[nodiscard]] Tensor matmul_nt(const Tensor& a, const Tensor& b);

/// Transpose of a rank-2 tensor.
[[nodiscard]] Tensor transpose(const Tensor& a);

/// c = a (m×k) * b (k×n), written into caller memory. When `accumulate` is
/// set the product is added onto the existing contents of c instead of
/// overwriting — the destination-passing form of `grad.add_(matmul(...))`.
void matmul_into(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate = false);

/// c = aᵀ * b for a stored (k×m) row-major and b (k×n). Uses transient
/// Workspace scratch for the packed transpose.
void matmul_tn_into(const float* a, const float* b, float* c, std::int64_t k,
                    std::int64_t m, std::int64_t n, bool accumulate = false);

/// c = a (m×k) * bᵀ for b stored (n×k) row-major. Uses transient
/// Workspace scratch for aᵀ and cᵀ; with `accumulate` set each element's
/// fold starts from its value in c.
void matmul_nt_into(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate = false);

/// out (n×m) = transpose of a (m×n), written into caller memory.
void transpose_into(const float* a, std::int64_t m, std::int64_t n,
                    float* out);

/// Name of the hand-scheduled panel microkernel the float matmul family
/// dispatches to on this host: "avx512" (8×32 FMA register tile), "avx2"
/// (6×16), or "generic" (the portable fallback). The MTSR_SIMD environment
/// variable caps the choice at process start, exactly like the int8
/// dispatch (gemm_u8s8_kernel_name).
[[nodiscard]] const char* matmul_kernel_name();

/// Testing/benchmark seam: runs matmul_into with the microkernel of an
/// explicit dispatch level — "scalar"/"sse2"/"generic" (portable kernel),
/// "avx2", or "avx512"/"vnni" (the same float kernel) — regardless of
/// MTSR_SIMD. Returns false without touching `c` when this host cannot
/// execute the requested level. The production dispatch, resolved once per
/// process, is unaffected.
[[nodiscard]] bool matmul_into_forced_kernel(const char* level,
                                             const float* a, const float* b,
                                             float* c, std::int64_t m,
                                             std::int64_t k, std::int64_t n,
                                             bool accumulate = false);

// ---- Quantised GEMM (u8 activations · s8 weights) --------------------------
//
// The int8 inference path: C (m×n float) = dequant(A_u8 (m×k) · B_s8 (k×n)).
// Unlike the float packed-B path — which re-packs B panels on every call —
// the s8 B operand (the WEIGHTS of a quantised layer) is packed ONCE at
// model-load time into a PackedInt8B and reused for the model's lifetime:
// weight memory traffic drops 4x and the pack cost disappears from the
// serving loop. A is quantised into workspace scratch per call by the
// layer (quant.hpp). Accumulation is exact int32, so results are
// bit-identical for every pool size and every SIMD level by construction;
// the dequant + bias + LeakyReLU epilogue is fused into the register-tile
// store (single-rounding fmaf in every path).

/// s8 B matrix packed for gemm_u8s8: k-groups of 4 interleaved per column
/// so the maddubs/vpdpbusd microkernels stream one contiguous load per 4
/// k-steps. Values must lie within ±quant::kWeightQmax (checked at pack
/// time) — the saturation-freedom contract of the maddubs paths.
struct PackedInt8B {
  std::vector<std::int8_t> data;     ///< (kpad/4, npad, 4) s8, zero-padded
  std::vector<std::int32_t> colsum;  ///< per-column Σ_k b[k,j] (length npad)
  std::int64_t k = 0;                ///< logical row count
  std::int64_t n = 0;                ///< logical column count
  std::int64_t npad = 0;             ///< n rounded up to 16 columns

  [[nodiscard]] bool empty() const { return data.empty(); }
  /// k rounded up to 4: the minimum row stride (lda) of the A operand.
  [[nodiscard]] std::int64_t kpad() const { return (k + 3) / 4 * 4; }
};

/// Packs a row-major (k × n) s8 matrix. Throws when any value exceeds
/// ±quant::kWeightQmax.
[[nodiscard]] PackedInt8B pack_b_s8(const std::int8_t* b, std::int64_t k,
                                    std::int64_t n);

/// Fused epilogue of gemm_u8s8, applied per output element as
///   y = fmaf(col_scale[j], float(acc − a_zp·colsum[j]), bias ? bias[j] : 0)
///   c[i,j] = max(y, lrelu_alpha·y)
/// col_scale[j] is the combined activation×weight scale of column j;
/// lrelu_alpha = 1 leaves y unchanged (no activation), alpha < 1 applies
/// LeakyReLU. Pointers must cover [0, n) of the packed B.
struct QuantEpilogue {
  const float* col_scale = nullptr;
  std::int32_t a_zp = 0;
  const float* bias = nullptr;  ///< per-column bias, or null
  float lrelu_alpha = 1.f;
};

/// C (m × b.n, row-major float, row stride ldc) = epilogue(A_u8 · B).
/// `lda` is A's row stride in elements and must be >= b.kpad(); bytes past
/// column k−1 may hold anything (they multiply packed zeros). ldc <= 0
/// selects b.n. When the caller passes ldc >= b.npad the kernel computes
/// the full padded column span — the zero-pad columns write epilogue(0)
/// (= 0 when their col_scale/bias pad entries are 0) and the vector path
/// never drops to the scalar column tail, which is what makes few-output-
/// channel convolutions (e.g. a 1-channel output head) run at SIMD speed;
/// ep.col_scale (and ep.bias when set) must then cover b.npad entries.
/// Pool-parallel over rows (tall) or 16-column blocks (wide);
/// bit-identical for every pool size and SIMD level.
void gemm_u8s8(const std::uint8_t* a, std::int64_t lda, const PackedInt8B& b,
               std::int64_t m, const QuantEpilogue& ep, float* c,
               std::int64_t ldc = 0);

/// Serial scalar reference implementation (same contract, same epilogue) —
/// the bit-exactness oracle for the SIMD kernels.
void gemm_u8s8_ref(const std::uint8_t* a, std::int64_t lda,
                   const PackedInt8B& b, std::int64_t m,
                   const QuantEpilogue& ep, float* c, std::int64_t ldc = 0);

/// Name of the microkernel gemm_u8s8 dispatches to on this host:
/// "vnni", "avx512", "avx2", or "scalar". The MTSR_SIMD environment
/// variable (values "scalar", "sse2", "avx2", "avx512", "vnni") caps the
/// choice at process start — MTSR_SIMD=scalar is the forced-lowest-ISA
/// mode CI uses to keep the scalar fallback tested on wide hosts, and
/// "avx512" deliberately caps below VNNI so the maddubs AVX-512 kernel
/// stays reachable on VNNI hosts.
[[nodiscard]] const char* gemm_u8s8_kernel_name();

/// Testing seam: runs gemm_u8s8 with the microkernel of an explicit
/// dispatch level ("scalar"/"sse2", "avx2", "avx512", "vnni") regardless
/// of MTSR_SIMD. Returns false without touching `c` when this host cannot
/// execute the requested level.
[[nodiscard]] bool gemm_u8s8_forced_kernel(const char* level,
                                           const std::uint8_t* a,
                                           std::int64_t lda,
                                           const PackedInt8B& b,
                                           std::int64_t m,
                                           const QuantEpilogue& ep, float* c,
                                           std::int64_t ldc = 0);

// ---- Conv lowering ---------------------------------------------------------

/// im2col for 2-D convolution.
///
/// Input  (C, H, W); output (C*kh*kw, oh*ow) where
/// oh = (H + 2*pad_h - kh)/stride_h + 1 and likewise for ow. Out-of-bounds
/// taps read as zero (zero padding).
[[nodiscard]] Tensor im2col(const Tensor& input, int kh, int kw, int stride_h,
                            int stride_w, int pad_h, int pad_w);

/// Adjoint of im2col: scatters columns back into a (C, H, W) image,
/// accumulating where patches overlap.
[[nodiscard]] Tensor col2im(const Tensor& columns, std::int64_t channels,
                            std::int64_t height, std::int64_t width, int kh,
                            int kw, int stride_h, int stride_w, int pad_h,
                            int pad_w);

/// Whole-batch im2col: input (N, C, H, W) -> (C*kh*kw, N*oh*ow), with the
/// columns of sample i occupying the contiguous range [i*oh*ow, (i+1)*oh*ow).
/// Lets a convolution over the whole batch run as ONE GEMM per step.
[[nodiscard]] Tensor im2col_batched(const Tensor& input, int kh, int kw,
                                    int stride_h, int stride_w, int pad_h,
                                    int pad_w);

/// Adjoint of im2col_batched: scatters (C*kh*kw, N*oh*ow) columns back into
/// an (N, C, H, W) batch, accumulating where patches overlap.
[[nodiscard]] Tensor col2im_batched(const Tensor& columns, std::int64_t n,
                                    std::int64_t channels, std::int64_t height,
                                    std::int64_t width, int kh, int kw,
                                    int stride_h, int stride_w, int pad_h,
                                    int pad_w);

/// Whole-batch 3-D lowering: input (N, C, D, H, W) ->
/// (C*kd*kh*kw, N*od*oh*ow), sample i's columns contiguous as in
/// im2col_batched.
[[nodiscard]] Tensor vol2col_batched(const Tensor& input, int kd, int kh,
                                     int kw, int stride_d, int stride_h,
                                     int stride_w, int pad_d, int pad_h,
                                     int pad_w);

/// Adjoint of vol2col_batched: scatters columns back into an
/// (N, C, D, H, W) batch.
[[nodiscard]] Tensor col2vol_batched(const Tensor& columns, std::int64_t n,
                                     std::int64_t channels, std::int64_t depth,
                                     std::int64_t height, std::int64_t width,
                                     int kd, int kh, int kw, int stride_d,
                                     int stride_h, int stride_w, int pad_d,
                                     int pad_h, int pad_w);

/// Destination-passing im2col_batched: input (n, c, h, w) laid out
/// row-major at `input`, columns written to `out` (c*kh*kw rows of
/// n*oh*ow floats). Every output element is written (padding taps as 0).
void im2col_batched_into(const float* input, std::int64_t n, std::int64_t c,
                         std::int64_t h, std::int64_t w, int kh, int kw,
                         int stride_h, int stride_w, int pad_h, int pad_w,
                         float* out);

/// Destination-passing col2im_batched; `out` (n*channels*height*width) is
/// zeroed before the scatter.
void col2im_batched_into(const float* columns, std::int64_t n,
                         std::int64_t channels, std::int64_t height,
                         std::int64_t width, int kh, int kw, int stride_h,
                         int stride_w, int pad_h, int pad_w, float* out);

/// Destination-passing vol2col_batched (see vol2col_batched).
void vol2col_batched_into(const float* input, std::int64_t n, std::int64_t c,
                          std::int64_t d, std::int64_t h, std::int64_t w,
                          int kd, int kh, int kw, int stride_d, int stride_h,
                          int stride_w, int pad_d, int pad_h, int pad_w,
                          float* out);

/// Destination-passing col2vol_batched; `out` is zeroed before the scatter.
void col2vol_batched_into(const float* columns, std::int64_t n,
                          std::int64_t channels, std::int64_t depth,
                          std::int64_t height, std::int64_t width, int kd,
                          int kh, int kw, int stride_d, int stride_h,
                          int stride_w, int pad_d, int pad_h, int pad_w,
                          float* out);

// ---- Direct stride-1 convolution -------------------------------------------
//
// A stride-1 convolution over a zero-padded input needs no lowered matrix:
// on the padded grid, tap (c, kz, ky, kx) of output position f reads
// xpad[c][f + (kz·hp + ky)·wp + kx], so each tap is one contiguous row and
// the float panel microkernel reads it in place as its B operand. Output is
// bit-identical to lowering the unpadded input (im2col_batched_into /
// vol2col_batched_into), matmul_into, channel_major_to_batch_into and
// add_channel_bias, at every SIMD level and pool size.

/// Zero-pads `planes` row-major (d, h, w) volumes by (pad_d, pad_h, pad_w)
/// on each side into `out` (planes × (d+2·pad_d, h+2·pad_h, w+2·pad_w)).
void pad_volume_into(const float* input, std::int64_t planes, std::int64_t d,
                     std::int64_t h, std::int64_t w, int pad_d, int pad_h,
                     int pad_w, float* out);

/// Whether conv_stride1_into computes a stride-1 convolution with m output
/// channels, k = C·kd·kh·kw lowered rows and `positions` = N·od·oh·ow
/// output positions: k > 32 (fewer taps lower instead) and m < positions
/// (the lowered product would run the wide driver over all m rows at
/// once). Other convolutions lower.
[[nodiscard]] bool conv_stride1_direct(std::int64_t m, std::int64_t k,
                                       std::int64_t positions);

/// Stride-1 convolution from a padded batch `xpad` (n, c, dp, hp, wp):
/// out (n, m, dp-kd+1, hp-kh+1, wp-kw+1) = weight (m, c·kd·kh·kw) applied
/// at every position, plus bias[o] (nullable) as one float add. Requires
/// conv_stride1_direct. A 2-D convolution is the dp = kd = 1 case.
void conv_stride1_into(const float* xpad, std::int64_t n, std::int64_t c,
                       std::int64_t dp, std::int64_t hp, std::int64_t wp,
                       int kd, int kh, int kw, const float* weight,
                       std::int64_t m, const float* bias, float* out);

// ---- Quantised (uint8) lowering --------------------------------------------
//
// The int8 conv path quantises the layer INPUT image once (N·C·H·W
// elements) and lowers bytes instead of floats: the k²-fold duplication of
// im2col then moves 4x less memory, and the subsequent A-operand transpose
// is a byte transpose. Padding taps are filled with `pad` — the
// activation zero point, which is exactly where 0.0 quantises (quant.hpp).

/// uint8 im2col_batched (see im2col_batched_into); out-of-bounds taps read
/// as `pad`.
void im2col_batched_u8_into(const std::uint8_t* input, std::int64_t n,
                            std::int64_t c, std::int64_t h, std::int64_t w,
                            int kh, int kw, int stride_h, int stride_w,
                            int pad_h, int pad_w, std::uint8_t pad,
                            std::uint8_t* out);

/// uint8 vol2col_batched (see vol2col_batched_into).
void vol2col_batched_u8_into(const std::uint8_t* input, std::int64_t n,
                             std::int64_t c, std::int64_t d, std::int64_t h,
                             std::int64_t w, int kd, int kh, int kw,
                             int stride_d, int stride_h, int stride_w,
                             int pad_d, int pad_h, int pad_w, std::uint8_t pad,
                             std::uint8_t* out);

/// Byte transpose: out (cols × row_stride) = aᵀ for a (rows × cols), each
/// output row zero-filled from `rows` to `row_stride` (the GEMM
/// k-alignment tail). Tiled and pool-parallel.
void transpose_u8_into(const std::uint8_t* a, std::int64_t rows,
                       std::int64_t cols, std::uint8_t* out,
                       std::int64_t row_stride);

// ---- Batch/channel-major reordering ----------------------------------------

/// Reorders (N, C, *) into a channel-major matrix (C, N*inner) where inner
/// is the product of the trailing dims. The GEMM-side layout of the batched
/// conv lowering.
[[nodiscard]] Tensor batch_to_channel_major(const Tensor& input);

/// Inverse of batch_to_channel_major: (C, N*inner) -> out_shape, which must
/// be (N, C, *) with matching volume.
[[nodiscard]] Tensor channel_major_to_batch(const Tensor& mat,
                                            const Shape& out_shape);

/// Destination-passing batch_to_channel_major over raw (n, c, inner) data.
void batch_to_channel_major_into(const float* input, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 float* out);

/// Destination-passing channel_major_to_batch over raw (n, c, inner) data.
void channel_major_to_batch_into(const float* mat, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 float* out);

// ---- Channel bias / reductions ---------------------------------------------

/// In-place broadcast-add of a per-channel bias (C) over an (N, C, *)
/// batch. The bias path shared by every conv layer's forward.
void add_channel_bias(Tensor& batch, const Tensor& bias);

/// Accumulates per-channel sums of an (N, C, *) batch into `sums` (C) —
/// the bias-gradient reduction shared by every conv layer's backward.
/// Deterministic: channel c sums samples then positions in ascending order
/// regardless of pool size.
void accumulate_channel_sums(const Tensor& batch, Tensor& sums);

// ---- Spatial helpers -------------------------------------------------------

/// Zero-pads the last two axes of a rank-2..4 tensor by (pad_h, pad_w) on
/// each side.
[[nodiscard]] Tensor pad2d(const Tensor& input, int pad_h, int pad_w);

/// Crops the last two axes: rows [r0, r0+rows), cols [c0, c0+cols).
[[nodiscard]] Tensor crop2d(const Tensor& input, std::int64_t r0,
                            std::int64_t c0, std::int64_t rows,
                            std::int64_t cols);

/// Average-pools the last two axes with a non-overlapping factor×factor
/// window. Both spatial dims must be divisible by factor.
[[nodiscard]] Tensor avg_pool2d(const Tensor& input, int factor);

/// Sum-pools the last two axes with a non-overlapping factor×factor window.
[[nodiscard]] Tensor sum_pool2d(const Tensor& input, int factor);

/// Nearest-neighbour upsampling of the last two axes by an integer factor.
[[nodiscard]] Tensor upsample_nearest2d(const Tensor& input, int factor);

/// Destination-passing nearest-neighbour upsample over raw (batch, rows,
/// cols) data.
void upsample_nearest2d_into(const float* input, std::int64_t batch,
                             std::int64_t rows, std::int64_t cols, int factor,
                             float* out);

/// Concatenates rank-N tensors along axis 0. All other dims must match.
[[nodiscard]] Tensor concat0(const std::vector<Tensor>& parts);

/// Stacks rank-N tensors into a rank-(N+1) tensor along a new axis 0.
[[nodiscard]] Tensor stack0(const std::vector<Tensor>& parts);

/// Extracts subtensor `index` along axis 0 of a rank-N tensor (result rank
/// N-1).
[[nodiscard]] Tensor select0(const Tensor& input, std::int64_t index);

}  // namespace mtsr

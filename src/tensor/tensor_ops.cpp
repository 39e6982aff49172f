#include "src/tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/workspace.hpp"
#include "src/tensor/quant.hpp"

namespace mtsr {
namespace {

// Splits a rank-2..4 tensor into (batch, rows, cols) where batch collapses
// all leading axes. Used by the 2-D spatial helpers below.
struct Flat3 {
  std::int64_t batch;
  std::int64_t rows;
  std::int64_t cols;
};

Flat3 flatten_spatial(const Shape& s, const char* who) {
  check(s.rank() >= 2 && s.rank() <= 4,
        std::string(who) + " requires a rank-2..4 tensor");
  std::int64_t batch = 1;
  for (int i = 0; i < s.rank() - 2; ++i) batch *= s.dim(i);
  return {batch, s.dim(-2), s.dim(-1)};
}

Shape with_spatial(const Shape& s, std::int64_t rows, std::int64_t cols) {
  std::vector<std::int64_t> dims = s.dims();
  dims[dims.size() - 2] = rows;
  dims[dims.size() - 1] = cols;
  return Shape(dims);
}

// ---- Packed-B blocked GEMM -------------------------------------------------
//
// C = A * B runs over (k-tile, j-tile) panels of B packed into Workspace
// scratch: each panel is a kKc×nc tile (nc = min(n, kNc), the product's own
// width up to kNc) copied once into a contiguous span, then streamed through
// L1/L2 by every row group that needs it. Tall products (m >= n) pack all
// panels up front and share them across the pool's row chunks; wide
// products (the conv lowerings: short A, enormous B) split over
// panel-aligned column chunks, each packing its own panels exactly once.
// Every float product — any k, and the TN and NT forms — runs here.
//
// Work is split so every output element is owned by exactly one thread and
// accumulates over k in a fixed ascending order — results are bit-identical
// for every pool size, and a column's value does not depend on how many
// other columns (windows of a batched pass) share the product.

constexpr std::int64_t kKc = 256;  // k rows per panel (A quad pack: 4 KB)
constexpr std::int64_t kNc = 512;  // max columns per panel (L2-resident)

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Copies B[kk0:kk1, j0:j1] (row-major, leading dimension ldb) into `panel`
// with row stride `ld`.
void pack_b_panel(const float* pb, std::int64_t ldb, std::int64_t kk0,
                  std::int64_t kk1, std::int64_t j0, std::int64_t j1,
                  std::int64_t ld, float* panel) {
  const std::size_t bytes =
      static_cast<std::size_t>(j1 - j0) * sizeof(float);
  for (std::int64_t kk = kk0; kk < kk1; ++kk) {
    std::memcpy(panel + (kk - kk0) * ld, pb + kk * ldb + j0, bytes);
  }
}

// Register-tile width of the portable microkernel: a 4×16 C tile is held
// in registers across the whole k-tile, so C is loaded/stored once per
// panel instead of once per k step.
constexpr std::int64_t kMr = 16;

// SIMD dispatch of the float panel microkernel: the hand-scheduled AVX-512
// (8×32 register tile) and AVX2 (6×16) kernels below are selected once per
// process by CPUID, capped by the MTSR_SIMD environment variable; the
// portable generic kernel is the fallback everywhere else.

// Every panel microkernel computes C[i0:i1, j0:j1] += A[i0:i1, kk0:kk1] · B
// and finds B through a row accessor: rows.row(kk) is k-tile row kk0 + kk
// from column j0 on, and rows.ahead(kk) the row four steps later (the
// prefetch target). The packed GEMM passes PanelRows, a packed panel with
// rows `ld` apart; the direct convolution passes TapRows, the padded input
// with one row per tap (conv_stride1_into). Each kernel is one template,
// so both instantiations run the same arithmetic on the same elements.
struct PanelRows {
  const float* b;
  std::int64_t ld;
  const float* row(std::int64_t kk) const { return b + kk * ld; }
  const float* ahead(std::int64_t kk) const { return b + (kk + 4) * ld; }
};

struct TapRows {
  const float* b;
  const std::int64_t* off;  // one offset per k-tile row
  std::int64_t kc;
  const float* row(std::int64_t kk) const { return b + off[kk]; }
  const float* ahead(std::int64_t kk) const {
    return b + off[std::min(kk + 4, kc - 1)];
  }
};

// Portable microkernel: a 4×kMr C tile accumulated in registers against
// packed A quads and B rows streamed through L1. Per output element the
// accumulation is the plain ascending-k sequence of a rounded multiply and
// a rounded add (the registers only hold what memory held before), and a k
// step whose four A values are all zero is skipped for every column of the
// quad, so results depend neither on pool size nor on where a column falls
// in the tile. A is packed negated and each step computes acc - (-a)·b,
// which equals acc + a·b in every bit unless an operand is NaN: subtraction
// does not commute, so when both operands are NaN the compiler cannot
// choose whose payload survives — it is always the accumulator's, in
// every loop below. Also the "scalar"/"sse2" forced levels.
template <typename Rows>
void gemm_nn_panel_generic(const float* pa, std::int64_t lda, Rows rows,
                           float* pc, std::int64_t ldc, std::int64_t i0,
                           std::int64_t i1, std::int64_t kk0,
                           std::int64_t kk1, std::int64_t j0,
                           std::int64_t j1) {
  alignas(64) float apack[4 * kKc];
  const std::int64_t width = j1 - j0;
  const std::int64_t kc = kk1 - kk0;
  std::int64_t i = i0;
  for (; i + 4 <= i1; i += 4) {
    // Pack the negated 4×kc A tile k-major: one quad per k step.
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* q = apack + kk * 4;
      const float* acol = pa + kk0 + kk;
      q[0] = -acol[(i + 0) * lda];
      q[1] = -acol[(i + 1) * lda];
      q[2] = -acol[(i + 2) * lda];
      q[3] = -acol[(i + 3) * lda];
    }
    float* c0 = pc + (i + 0) * ldc + j0;
    float* c1 = pc + (i + 1) * ldc + j0;
    float* c2 = pc + (i + 2) * ldc + j0;
    float* c3 = pc + (i + 3) * ldc + j0;
    std::int64_t j = 0;
    for (; j + kMr <= width; j += kMr) {
      alignas(64) float acc0[kMr], acc1[kMr], acc2[kMr], acc3[kMr];
      for (int t = 0; t < kMr; ++t) {
        acc0[t] = c0[j + t];
        acc1[t] = c1[j + t];
        acc2[t] = c2[j + t];
        acc3[t] = c3[j + t];
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* q = apack + kk * 4;
        const float a0 = q[0], a1 = q[1], a2 = q[2], a3 = q[3];
        if (a0 == 0.f && a1 == 0.f && a2 == 0.f && a3 == 0.f) continue;
        const float* b = rows.row(kk) + j;
        for (int t = 0; t < kMr; ++t) {
          const float bt = b[t];
          acc0[t] -= a0 * bt;
          acc1[t] -= a1 * bt;
          acc2[t] -= a2 * bt;
          acc3[t] -= a3 * bt;
        }
      }
      for (int t = 0; t < kMr; ++t) {
        c0[j + t] = acc0[t];
        c1[j + t] = acc1[t];
        c2[j + t] = acc2[t];
        c3[j + t] = acc3[t];
      }
    }
    for (; j < width; ++j) {  // tail columns: same order and zero-quad skip
      float s0 = c0[j], s1 = c1[j], s2 = c2[j], s3 = c3[j];
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* q = apack + kk * 4;
        if (q[0] == 0.f && q[1] == 0.f && q[2] == 0.f && q[3] == 0.f) {
          continue;
        }
        const float bt = rows.row(kk)[j];
        s0 -= q[0] * bt;
        s1 -= q[1] * bt;
        s2 -= q[2] * bt;
        s3 -= q[3] * bt;
      }
      c0[j] = s0;
      c1[j] = s1;
      c2[j] = s2;
      c3[j] = s3;
    }
  }
  for (; i < i1; ++i) {  // remainder rows: plain i-k-j over the B rows
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      apack[kk] = -pa[i * lda + kk0 + kk];
    }
    float* crow = pc + i * ldc + j0;
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      const float aik = apack[kk];
      if (aik == 0.f) continue;
      const float* b = rows.row(kk);
      for (std::int64_t j = 0; j < width; ++j) crow[j] -= aik * b[j];
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)

// Hand-scheduled AVX-512 panel microkernel: an 8×32 C tile — 16 zmm
// accumulators, two 16-lane B loads and eight broadcast-FMAs per k step —
// held in registers across the whole k-tile, with B prefetched four k rows
// ahead of use. Row remainders run a 4×64 and then a 1×64 tile, so a
// product with few rows (a 4- or 1-channel conv) still keeps 16 or 4
// independent FMA chains in flight. Every output element accumulates as
// the plain ascending-k fold of single-rounded FMAs (no zero-skip, no
// reassociation), so the per-element result is independent of row-group
// phase, column-tile position, and chunk geometry: bit-identity across
// pool sizes holds by construction. Column tails run the identical FMA
// sequence through masked loads/stores.
template <typename Rows>
__attribute__((target("avx512f"))) void gemm_nn_panel_avx512(
    const float* pa, std::int64_t lda, Rows rows, float* pc,
    std::int64_t ldc, std::int64_t i0, std::int64_t i1, std::int64_t kk0,
    std::int64_t kk1, std::int64_t j0, std::int64_t j1) {
  alignas(64) float apack[8 * kKc];
  const std::int64_t width = j1 - j0;
  const std::int64_t kc = kk1 - kk0;
  const auto tail_mask = [width](std::int64_t j) {
    const std::int64_t rem = width - j;
    return rem >= 16 ? static_cast<__mmask16>(0xffff)
                     : static_cast<__mmask16>((1u << rem) - 1u);
  };
  std::int64_t i = i0;
  for (; i + 8 <= i1; i += 8) {
    // Pack the 8×kc A tile k-major: one 8-float quad read per k step.
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* q = apack + kk * 8;
      const float* acol = pa + kk0 + kk;
      q[0] = acol[(i + 0) * lda];
      q[1] = acol[(i + 1) * lda];
      q[2] = acol[(i + 2) * lda];
      q[3] = acol[(i + 3) * lda];
      q[4] = acol[(i + 4) * lda];
      q[5] = acol[(i + 5) * lda];
      q[6] = acol[(i + 6) * lda];
      q[7] = acol[(i + 7) * lda];
    }
    std::int64_t j = 0;
    for (; j + 32 <= width; j += 32) {
      float* cp = pc + i * ldc + j0 + j;
      __m512 acc[8][2];
      for (int r = 0; r < 8; ++r) {
        acc[r][0] = _mm512_loadu_ps(cp + r * ldc);
        acc[r][1] = _mm512_loadu_ps(cp + r * ldc + 16);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* bk = rows.row(kk) + j;
        _mm_prefetch(reinterpret_cast<const char*>(rows.ahead(kk) + j),
                     _MM_HINT_T0);
        const __m512 b0 = _mm512_loadu_ps(bk);
        const __m512 b1 = _mm512_loadu_ps(bk + 16);
        const float* q = apack + kk * 8;
        for (int r = 0; r < 8; ++r) {
          const __m512 av = _mm512_set1_ps(q[r]);
          acc[r][0] = _mm512_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm512_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      for (int r = 0; r < 8; ++r) {
        _mm512_storeu_ps(cp + r * ldc, acc[r][0]);
        _mm512_storeu_ps(cp + r * ldc + 16, acc[r][1]);
      }
    }
    for (; j < width; j += 16) {  // 16-wide tail, masked on the last block
      const __mmask16 mask = tail_mask(j);
      float* cp = pc + i * ldc + j0 + j;
      __m512 acc[8];
      for (int r = 0; r < 8; ++r) {
        acc[r] = _mm512_maskz_loadu_ps(mask, cp + r * ldc);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_maskz_loadu_ps(mask, rows.row(kk) + j);
        const float* q = apack + kk * 8;
        for (int r = 0; r < 8; ++r) {
          acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(q[r]), b, acc[r]);
        }
      }
      for (int r = 0; r < 8; ++r) {
        _mm512_mask_storeu_ps(cp + r * ldc, mask, acc[r]);
      }
    }
  }
  for (; i + 4 <= i1; i += 4) {  // 4-row remainder: 4×64, then 4×16 tails
    const float* arow = pa + i * lda + kk0;
    std::int64_t j = 0;
    for (; j + 64 <= width; j += 64) {
      float* cp = pc + i * ldc + j0 + j;
      __m512 acc[4][4];
      for (int r = 0; r < 4; ++r) {
        for (int v = 0; v < 4; ++v) {
          acc[r][v] = _mm512_loadu_ps(cp + r * ldc + v * 16);
        }
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* bk = rows.row(kk) + j;
        __m512 b[4];
        for (int v = 0; v < 4; ++v) b[v] = _mm512_loadu_ps(bk + v * 16);
        for (int r = 0; r < 4; ++r) {
          const __m512 av = _mm512_set1_ps(arow[r * lda + kk]);
          for (int v = 0; v < 4; ++v) {
            acc[r][v] = _mm512_fmadd_ps(av, b[v], acc[r][v]);
          }
        }
      }
      for (int r = 0; r < 4; ++r) {
        for (int v = 0; v < 4; ++v) {
          _mm512_storeu_ps(cp + r * ldc + v * 16, acc[r][v]);
        }
      }
    }
    for (; j < width; j += 16) {
      const __mmask16 mask = tail_mask(j);
      float* cp = pc + i * ldc + j0 + j;
      __m512 acc[4];
      for (int r = 0; r < 4; ++r) {
        acc[r] = _mm512_maskz_loadu_ps(mask, cp + r * ldc);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_maskz_loadu_ps(mask, rows.row(kk) + j);
        for (int r = 0; r < 4; ++r) {
          acc[r] = _mm512_fmadd_ps(_mm512_set1_ps(arow[r * lda + kk]), b,
                                   acc[r]);
        }
      }
      for (int r = 0; r < 4; ++r) {
        _mm512_mask_storeu_ps(cp + r * ldc, mask, acc[r]);
      }
    }
  }
  for (; i < i1; ++i) {  // single rows: 1×64, then 16-wide tails
    const float* arow = pa + i * lda + kk0;
    float* crow = pc + i * ldc + j0;
    std::int64_t j = 0;
    for (; j + 64 <= width; j += 64) {
      __m512 acc[4];
      for (int v = 0; v < 4; ++v) acc[v] = _mm512_loadu_ps(crow + j + v * 16);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* bk = rows.row(kk) + j;
        const __m512 av = _mm512_set1_ps(arow[kk]);
        for (int v = 0; v < 4; ++v) {
          acc[v] = _mm512_fmadd_ps(av, _mm512_loadu_ps(bk + v * 16), acc[v]);
        }
      }
      for (int v = 0; v < 4; ++v) _mm512_storeu_ps(crow + j + v * 16, acc[v]);
    }
    for (; j < width; j += 16) {
      const __mmask16 mask = tail_mask(j);
      __m512 acc = _mm512_maskz_loadu_ps(mask, crow + j);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m512 b = _mm512_maskz_loadu_ps(mask, rows.row(kk) + j);
        acc = _mm512_fmadd_ps(_mm512_set1_ps(arow[kk]), b, acc);
      }
      _mm512_mask_storeu_ps(crow + j, mask, acc);
    }
  }
}

// Hand-scheduled AVX2 panel microkernel: a 6×16 C tile (12 ymm
// accumulators, two B loads + six broadcast-FMAs per k step; 15 of 16 ymm
// in flight). Row remainders run a 4×16 and then a 1×64 tile (8
// accumulators each). Tails drop to one 8-lane vector, then scalar
// std::fmaf — the identical single-rounded ascending-k fold per element,
// so the same bit-identity argument as the AVX-512 kernel applies, and the
// two kernels agree bit for bit.
template <typename Rows>
__attribute__((target("avx2,fma"))) void gemm_nn_panel_avx2(
    const float* pa, std::int64_t lda, Rows rows, float* pc,
    std::int64_t ldc, std::int64_t i0, std::int64_t i1, std::int64_t kk0,
    std::int64_t kk1, std::int64_t j0, std::int64_t j1) {
  alignas(64) float apack[6 * kKc];
  const std::int64_t width = j1 - j0;
  const std::int64_t kc = kk1 - kk0;
  std::int64_t i = i0;
  for (; i + 6 <= i1; i += 6) {
    for (std::int64_t kk = 0; kk < kc; ++kk) {
      float* q = apack + kk * 6;
      const float* acol = pa + kk0 + kk;
      q[0] = acol[(i + 0) * lda];
      q[1] = acol[(i + 1) * lda];
      q[2] = acol[(i + 2) * lda];
      q[3] = acol[(i + 3) * lda];
      q[4] = acol[(i + 4) * lda];
      q[5] = acol[(i + 5) * lda];
    }
    std::int64_t j = 0;
    for (; j + 16 <= width; j += 16) {
      float* cp = pc + i * ldc + j0 + j;
      __m256 acc[6][2];
      for (int r = 0; r < 6; ++r) {
        acc[r][0] = _mm256_loadu_ps(cp + r * ldc);
        acc[r][1] = _mm256_loadu_ps(cp + r * ldc + 8);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* bk = rows.row(kk) + j;
        _mm_prefetch(reinterpret_cast<const char*>(rows.ahead(kk) + j),
                     _MM_HINT_T0);
        const __m256 b0 = _mm256_loadu_ps(bk);
        const __m256 b1 = _mm256_loadu_ps(bk + 8);
        const float* q = apack + kk * 6;
        for (int r = 0; r < 6; ++r) {
          const __m256 av = _mm256_set1_ps(q[r]);
          acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      for (int r = 0; r < 6; ++r) {
        _mm256_storeu_ps(cp + r * ldc, acc[r][0]);
        _mm256_storeu_ps(cp + r * ldc + 8, acc[r][1]);
      }
    }
    for (; j + 8 <= width; j += 8) {
      float* cp = pc + i * ldc + j0 + j;
      __m256 acc[6];
      for (int r = 0; r < 6; ++r) acc[r] = _mm256_loadu_ps(cp + r * ldc);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b = _mm256_loadu_ps(rows.row(kk) + j);
        const float* q = apack + kk * 6;
        for (int r = 0; r < 6; ++r) {
          acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(q[r]), b, acc[r]);
        }
      }
      for (int r = 0; r < 6; ++r) _mm256_storeu_ps(cp + r * ldc, acc[r]);
    }
    for (; j < width; ++j) {  // scalar columns: fmaf keeps FMA rounding
      float* cp = pc + i * ldc + j0 + j;
      float s[6];
      for (int r = 0; r < 6; ++r) s[r] = cp[r * ldc];
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float bt = rows.row(kk)[j];
        const float* q = apack + kk * 6;
        for (int r = 0; r < 6; ++r) s[r] = std::fmaf(q[r], bt, s[r]);
      }
      for (int r = 0; r < 6; ++r) cp[r * ldc] = s[r];
    }
  }
  for (; i + 4 <= i1; i += 4) {  // 4-row remainder: 4×16, 4×8, scalar
    const float* arow = pa + i * lda + kk0;
    std::int64_t j = 0;
    for (; j + 16 <= width; j += 16) {
      float* cp = pc + i * ldc + j0 + j;
      __m256 acc[4][2];
      for (int r = 0; r < 4; ++r) {
        acc[r][0] = _mm256_loadu_ps(cp + r * ldc);
        acc[r][1] = _mm256_loadu_ps(cp + r * ldc + 8);
      }
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* bk = rows.row(kk) + j;
        const __m256 b0 = _mm256_loadu_ps(bk);
        const __m256 b1 = _mm256_loadu_ps(bk + 8);
        for (int r = 0; r < 4; ++r) {
          const __m256 av = _mm256_set1_ps(arow[r * lda + kk]);
          acc[r][0] = _mm256_fmadd_ps(av, b0, acc[r][0]);
          acc[r][1] = _mm256_fmadd_ps(av, b1, acc[r][1]);
        }
      }
      for (int r = 0; r < 4; ++r) {
        _mm256_storeu_ps(cp + r * ldc, acc[r][0]);
        _mm256_storeu_ps(cp + r * ldc + 8, acc[r][1]);
      }
    }
    for (; j + 8 <= width; j += 8) {
      float* cp = pc + i * ldc + j0 + j;
      __m256 acc[4];
      for (int r = 0; r < 4; ++r) acc[r] = _mm256_loadu_ps(cp + r * ldc);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b = _mm256_loadu_ps(rows.row(kk) + j);
        for (int r = 0; r < 4; ++r) {
          acc[r] = _mm256_fmadd_ps(_mm256_set1_ps(arow[r * lda + kk]), b,
                                   acc[r]);
        }
      }
      for (int r = 0; r < 4; ++r) _mm256_storeu_ps(cp + r * ldc, acc[r]);
    }
    for (; j < width; ++j) {
      float* cp = pc + i * ldc + j0 + j;
      float s[4];
      for (int r = 0; r < 4; ++r) s[r] = cp[r * ldc];
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float bt = rows.row(kk)[j];
        for (int r = 0; r < 4; ++r) {
          s[r] = std::fmaf(arow[r * lda + kk], bt, s[r]);
        }
      }
      for (int r = 0; r < 4; ++r) cp[r * ldc] = s[r];
    }
  }
  for (; i < i1; ++i) {  // single rows: 1×64, 1×8, scalar
    const float* arow = pa + i * lda + kk0;
    float* crow = pc + i * ldc + j0;
    std::int64_t j = 0;
    for (; j + 64 <= width; j += 64) {
      __m256 acc[8];
      for (int v = 0; v < 8; ++v) acc[v] = _mm256_loadu_ps(crow + j + v * 8);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const float* bk = rows.row(kk) + j;
        const __m256 av = _mm256_set1_ps(arow[kk]);
        for (int v = 0; v < 8; ++v) {
          acc[v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bk + v * 8), acc[v]);
        }
      }
      for (int v = 0; v < 8; ++v) _mm256_storeu_ps(crow + j + v * 8, acc[v]);
    }
    for (; j + 8 <= width; j += 8) {
      __m256 acc = _mm256_loadu_ps(crow + j);
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        const __m256 b = _mm256_loadu_ps(rows.row(kk) + j);
        acc = _mm256_fmadd_ps(_mm256_set1_ps(arow[kk]), b, acc);
      }
      _mm256_storeu_ps(crow + j, acc);
    }
    for (; j < width; ++j) {
      float s = crow[j];
      for (std::int64_t kk = 0; kk < kc; ++kk) {
        s = std::fmaf(arow[kk], rows.row(kk)[j], s);
      }
      crow[j] = s;
    }
  }
}

#endif  // __x86_64__ && __GNUC__

template <typename Rows>
using FloatPanelFn = void (*)(const float*, std::int64_t, Rows, float*,
                              std::int64_t, std::int64_t, std::int64_t,
                              std::int64_t, std::int64_t, std::int64_t,
                              std::int64_t);

// One dispatch level: its panel kernel instantiated for both B operands.
struct FloatPanelKernel {
  FloatPanelFn<PanelRows> packed = &gemm_nn_panel_generic<PanelRows>;
  FloatPanelFn<TapRows> taps = &gemm_nn_panel_generic<TapRows>;
  const char* name = "generic";
};

#if defined(__x86_64__) && defined(__GNUC__)
constexpr FloatPanelKernel kAvx512Kernel = {
    &gemm_nn_panel_avx512<PanelRows>, &gemm_nn_panel_avx512<TapRows>,
    "avx512"};
constexpr FloatPanelKernel kAvx2Kernel = {
    &gemm_nn_panel_avx2<PanelRows>, &gemm_nn_panel_avx2<TapRows>, "avx2"};
#endif

// Strict level lookup shared by the forced-kernel testing seam: resolves
// exactly the requested level or reports that this host cannot run it.
// "vnni" maps to the AVX-512 float kernel — the levels are shared with the
// int8 dispatch and VNNI only changes the int8 microkernel.
bool float_kernel_for_level(std::string_view level, FloatPanelKernel* out) {
  if (level == "scalar" || level == "sse2" || level == "generic") {
    *out = {};
    return true;
  }
#if defined(__x86_64__) && defined(__GNUC__)
  if ((level == "avx512" || level == "vnni") &&
      __builtin_cpu_supports("avx512f")) {
    *out = kAvx512Kernel;
    return true;
  }
  if (level == "avx2" && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    *out = kAvx2Kernel;
    return true;
  }
#endif
  return false;
}

// Picks the widest float kernel the host supports, capped by MTSR_SIMD.
// Resolved once per process, so the choice cannot vary mid-run.
FloatPanelKernel resolve_float_kernel() {
  const char* env = std::getenv("MTSR_SIMD");
  const std::string_view want = env != nullptr ? env : "";
  if (want == "scalar" || want == "sse2") return {};
#if defined(__x86_64__) && defined(__GNUC__)
  const bool allow_avx512 =
      want.empty() || want == "avx512" || want == "vnni";
  const bool allow_avx2 = allow_avx512 || want == "avx2";
  if (allow_avx512 && __builtin_cpu_supports("avx512f")) {
    return kAvx512Kernel;
  }
  if (allow_avx2 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return kAvx2Kernel;
  }
#endif
  return {};
}

const FloatPanelKernel& float_panel_kernel() {
  static const FloatPanelKernel kernel = resolve_float_kernel();
  return kernel;
}

// Minimum rows per chunk in the tall dispatch: amortises the A-tile packing.
constexpr std::int64_t kRowGrain = 16;

// Parallel packed-B driver for C = A * B (all row-major). Splits over rows
// when C is tall, over B panels when C is wide (conv lowering produces
// short-and-wide products), so the pool stays busy either way. `kernel` is
// the panel microkernel resolved by the caller (production dispatch or the
// forced-kernel seam).
void gemm_nn(const float* pa, const float* pb, float* pc, std::int64_t m,
             std::int64_t k, std::int64_t n, bool accumulate,
             FloatPanelFn<PanelRows> kernel) {
  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  const std::int64_t nkt = ceil_div(k, kKc);
  const std::int64_t njt = ceil_div(n, kNc);
  const std::int64_t nc = std::min(n, kNc);  // panel row stride
  // jt-major so one column block's k-panels are contiguous; k-tiles within
  // a block pack back-to-back (no padding between short edge tiles).
  float* packed = ws.alloc(njt * k * nc);
  const auto panel_at = [&](std::int64_t kk0, std::int64_t jt) {
    return packed + (jt * k + kk0) * nc;
  };

  if (m >= n) {
    // Tall C: pack every panel once (parallel over panels), then share the
    // packed matrix read-only across all row chunks.
    parallel_for(nkt * njt, [&](std::int64_t p) {
      const std::int64_t jt = p / nkt, kk0 = (p % nkt) * kKc;
      pack_b_panel(pb, n, kk0, std::min(k, kk0 + kKc), jt * kNc,
                   std::min(n, (jt + 1) * kNc), nc, panel_at(kk0, jt));
    });
    parallel_for_grain(m, kRowGrain,
                       [&](std::int64_t i0, std::int64_t i1, int) {
      if (!accumulate) {
        std::memset(pc + i0 * n, 0,
                    static_cast<std::size_t>((i1 - i0) * n) * sizeof(float));
      }
      for (std::int64_t jt = 0; jt < njt; ++jt) {
        const std::int64_t j0 = jt * kNc, j1 = std::min(n, j0 + kNc);
        for (std::int64_t kk0 = 0; kk0 < k; kk0 += kKc) {
          kernel(pa, k, PanelRows{panel_at(kk0, jt), nc}, pc, n, i0, i1, kk0,
                 std::min(k, kk0 + kKc), j0, j1);
        }
      }
    });
  } else {
    // Wide C: panel-aligned column chunks. Each chunk owns a range of
    // j-tiles outright, packs each of its panels exactly once, and consumes
    // it while it is still L2-hot.
    parallel_for_grain(njt, 1, [&](std::int64_t t0, std::int64_t t1, int) {
      for (std::int64_t jt = t0; jt < t1; ++jt) {
        const std::int64_t j0 = jt * kNc, j1 = std::min(n, j0 + kNc);
        if (!accumulate) {
          for (std::int64_t i = 0; i < m; ++i) {
            std::memset(pc + i * n + j0, 0,
                        static_cast<std::size_t>(j1 - j0) * sizeof(float));
          }
        }
        for (std::int64_t kk0 = 0; kk0 < k; kk0 += kKc) {
          float* panel = panel_at(kk0, jt);
          const std::int64_t kk1 = std::min(k, kk0 + kKc);
          pack_b_panel(pb, n, kk0, kk1, j0, j1, nc, panel);
          kernel(pa, k, PanelRows{panel, nc}, pc, n, 0, m, kk0, kk1, j0, j1);
        }
      }
    });
  }
}

// ---- Quantised u8·s8 GEMM --------------------------------------------------
//
// C = epilogue(A_u8 · B_s8) with exact int32 accumulation. B is pre-packed
// (PackedInt8B) in (k-group, column, 4) order so each 4-k step of one
// column is a contiguous 4-byte group: the AVX2/AVX-512 kernels broadcast
// 4 A bytes and run maddubs (u8·s8 pairs → i16) + madd (i16 pairs → i32)
// against 8/16 columns per vector. Weights are bounded by ±quant::kWeightQmax
// (= 63), so the i16 pair sums can never saturate and every kernel —
// scalar, AVX2, AVX-512, any pool size — produces identical accumulators.
// The float epilogue uses single-rounding fmaf/fmadd and max-based
// LeakyReLU in all paths, so outputs are bit-identical too.

// One output element's dequant + bias + LeakyReLU. max(y, alpha*y) equals
// LeakyReLU for alpha <= 1 and is the exact elementwise form the vector
// epilogues use.
inline float u8s8_epilogue_one(std::int32_t acc, std::int32_t zp_comp,
                               float scale, float bias, float alpha) {
  const float y =
      std::fmaf(scale, static_cast<float>(acc - zp_comp), bias);
  return std::max(y, y * alpha);
}

// Scalar kernel (and the j/row-tail path of the SIMD kernels): plain
// ascending-k s32 accumulation over the packed layout.
void u8s8_block_scalar(const std::uint8_t* a, std::int64_t lda,
                       const std::int8_t* packed, std::int64_t npad,
                       std::int64_t kgroups, const std::int32_t* colsum,
                       float* c, std::int64_t ldc, std::int64_t i0,
                       std::int64_t i1, std::int64_t j0, std::int64_t j1,
                       const QuantEpilogue& ep) {
  for (std::int64_t i = i0; i < i1; ++i) {
    const std::uint8_t* arow = a + i * lda;
    float* crow = c + i * ldc;
    for (std::int64_t j = j0; j < j1; ++j) {
      std::int32_t acc = 0;
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const std::int8_t* bq = packed + (kg * npad + j) * 4;
        const std::uint8_t* aq = arow + kg * 4;
        acc += static_cast<std::int32_t>(aq[0]) * bq[0] +
               static_cast<std::int32_t>(aq[1]) * bq[1] +
               static_cast<std::int32_t>(aq[2]) * bq[2] +
               static_cast<std::int32_t>(aq[3]) * bq[3];
      }
      crow[j] = u8s8_epilogue_one(acc, ep.a_zp * colsum[j], ep.col_scale[j],
                                  ep.bias != nullptr ? ep.bias[j] : 0.f,
                                  ep.lrelu_alpha);
    }
  }
}

using U8S8BlockFn = void (*)(const std::uint8_t*, std::int64_t,
                             const std::int8_t*, std::int64_t, std::int64_t,
                             const std::int32_t*, float*, std::int64_t,
                             std::int64_t, std::int64_t, std::int64_t,
                             std::int64_t, const QuantEpilogue&);

#if defined(__x86_64__) && defined(__GNUC__)

// AVX2 kernel: 4-row × 16-column register tile, maddubs + madd per 4-k
// group, vectorised epilogue. Full 16-column blocks only; the column tail
// falls through to the scalar kernel (identical results).
__attribute__((target("avx2,fma"))) void u8s8_block_avx2(
    const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
    std::int64_t npad, std::int64_t kgroups, const std::int32_t* colsum,
    float* c, std::int64_t ldc, std::int64_t i0, std::int64_t i1,
    std::int64_t j0, std::int64_t j1, const QuantEpilogue& ep) {
  const __m256i ones16 = _mm256_set1_epi16(1);
  const __m256i zp = _mm256_set1_epi32(ep.a_zp);
  const __m256 alpha = _mm256_set1_ps(ep.lrelu_alpha);
  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t rg = std::min<std::int64_t>(4, i1 - i);
    std::int64_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      __m256i acc[4][2];
      for (std::int64_t r = 0; r < rg; ++r) {
        acc[r][0] = _mm256_setzero_si256();
        acc[r][1] = _mm256_setzero_si256();
      }
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const std::int8_t* bq = packed + (kg * npad + j) * 4;
        const __m256i b0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq));
        const __m256i b1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bq + 32));
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          const __m256i av = _mm256_set1_epi32(aw);
          acc[r][0] = _mm256_add_epi32(
              acc[r][0],
              _mm256_madd_epi16(_mm256_maddubs_epi16(av, b0), ones16));
          acc[r][1] = _mm256_add_epi32(
              acc[r][1],
              _mm256_madd_epi16(_mm256_maddubs_epi16(av, b1), ones16));
        }
      }
      const __m256i comp0 = _mm256_mullo_epi32(
          zp, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(colsum + j)));
      const __m256i comp1 = _mm256_mullo_epi32(
          zp, _mm256_loadu_si256(
                  reinterpret_cast<const __m256i*>(colsum + j + 8)));
      const __m256 sc0 = _mm256_loadu_ps(ep.col_scale + j);
      const __m256 sc1 = _mm256_loadu_ps(ep.col_scale + j + 8);
      const __m256 bi0 = ep.bias != nullptr ? _mm256_loadu_ps(ep.bias + j)
                                            : _mm256_setzero_ps();
      const __m256 bi1 = ep.bias != nullptr
                             ? _mm256_loadu_ps(ep.bias + j + 8)
                             : _mm256_setzero_ps();
      for (std::int64_t r = 0; r < rg; ++r) {
        const __m256 t0 =
            _mm256_cvtepi32_ps(_mm256_sub_epi32(acc[r][0], comp0));
        const __m256 t1 =
            _mm256_cvtepi32_ps(_mm256_sub_epi32(acc[r][1], comp1));
        __m256 y0 = _mm256_fmadd_ps(sc0, t0, bi0);
        __m256 y1 = _mm256_fmadd_ps(sc1, t1, bi1);
        y0 = _mm256_max_ps(y0, _mm256_mul_ps(y0, alpha));
        y1 = _mm256_max_ps(y1, _mm256_mul_ps(y1, alpha));
        _mm256_storeu_ps(c + (i + r) * ldc + j, y0);
        _mm256_storeu_ps(c + (i + r) * ldc + j + 8, y1);
      }
    }
    if (j < j1) {
      u8s8_block_scalar(a, lda, packed, npad, kgroups, colsum, c, ldc, i,
                        i + rg, j, j1, ep);
    }
  }
}

// AVX-512BW kernel: same structure, 16 columns per vector.
// GCC's avx512fintrin.h implements _mm512_undefined_ps as "__Y = __Y",
// which trips -Wmaybe-uninitialized through the cvt/max wrappers; the
// value is never actually consumed uninitialised.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f,avx512bw"))) void u8s8_block_avx512(
    const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
    std::int64_t npad, std::int64_t kgroups, const std::int32_t* colsum,
    float* c, std::int64_t ldc, std::int64_t i0, std::int64_t i1,
    std::int64_t j0, std::int64_t j1, const QuantEpilogue& ep) {
  const __m512i ones16 = _mm512_set1_epi16(1);
  const __m512i zp = _mm512_set1_epi32(ep.a_zp);
  const __m512 alpha = _mm512_set1_ps(ep.lrelu_alpha);
  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t rg = std::min<std::int64_t>(4, i1 - i);
    std::int64_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      __m512i acc[4];
      for (std::int64_t r = 0; r < rg; ++r) acc[r] = _mm512_setzero_si512();
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const __m512i b = _mm512_loadu_si512(packed + (kg * npad + j) * 4);
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          const __m512i av = _mm512_set1_epi32(aw);
          acc[r] = _mm512_add_epi32(
              acc[r], _mm512_madd_epi16(_mm512_maddubs_epi16(av, b), ones16));
        }
      }
      const __m512i comp = _mm512_mullo_epi32(
          zp, _mm512_loadu_si512(colsum + j));
      const __m512 sc = _mm512_loadu_ps(ep.col_scale + j);
      const __m512 bi = ep.bias != nullptr ? _mm512_loadu_ps(ep.bias + j)
                                           : _mm512_setzero_ps();
      for (std::int64_t r = 0; r < rg; ++r) {
        const __m512 t = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r], comp));
        __m512 y = _mm512_fmadd_ps(sc, t, bi);
        y = _mm512_max_ps(y, _mm512_mul_ps(y, alpha));
        _mm512_storeu_ps(c + (i + r) * ldc + j, y);
      }
    }
    if (j < j1) {
      u8s8_block_scalar(a, lda, packed, npad, kgroups, colsum, c, ldc, i,
                        i + rg, j, j1, ep);
    }
  }
}

// VNNI kernel: vpdpbusd folds each 4-byte u8·s8 group straight into the
// s32 accumulator — no intermediate i16 stage. A 4-row × 32-column
// register tile (eight zmm accumulators; two 64-byte packed-B loads + four
// broadcasts + eight vpdpbusd per k-group), a 16-column secondary loop,
// and the scalar kernel for the column tail — identical s32 accumulators
// and the identical fused epilogue in every path.
__attribute__((target("avx512f,avx512bw,avx512vnni"))) void u8s8_block_vnni(
    const std::uint8_t* a, std::int64_t lda, const std::int8_t* packed,
    std::int64_t npad, std::int64_t kgroups, const std::int32_t* colsum,
    float* c, std::int64_t ldc, std::int64_t i0, std::int64_t i1,
    std::int64_t j0, std::int64_t j1, const QuantEpilogue& ep) {
  const __m512i zp = _mm512_set1_epi32(ep.a_zp);
  const __m512 alpha = _mm512_set1_ps(ep.lrelu_alpha);
  for (std::int64_t i = i0; i < i1; i += 4) {
    const std::int64_t rg = std::min<std::int64_t>(4, i1 - i);
    std::int64_t j = j0;
    for (; j + 32 <= j1; j += 32) {
      __m512i acc[4][2];
      for (std::int64_t r = 0; r < rg; ++r) {
        acc[r][0] = _mm512_setzero_si512();
        acc[r][1] = _mm512_setzero_si512();
      }
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const std::int8_t* bq = packed + (kg * npad + j) * 4;
        const __m512i b0 = _mm512_loadu_si512(bq);
        const __m512i b1 = _mm512_loadu_si512(bq + 64);
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          const __m512i av = _mm512_set1_epi32(aw);
          acc[r][0] = _mm512_dpbusd_epi32(acc[r][0], av, b0);
          acc[r][1] = _mm512_dpbusd_epi32(acc[r][1], av, b1);
        }
      }
      for (int half = 0; half < 2; ++half) {
        const std::int64_t jj = j + half * 16;
        const __m512i comp = _mm512_mullo_epi32(
            zp, _mm512_loadu_si512(colsum + jj));
        const __m512 sc = _mm512_loadu_ps(ep.col_scale + jj);
        const __m512 bi = ep.bias != nullptr
                              ? _mm512_loadu_ps(ep.bias + jj)
                              : _mm512_setzero_ps();
        for (std::int64_t r = 0; r < rg; ++r) {
          const __m512 t =
              _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r][half], comp));
          __m512 y = _mm512_fmadd_ps(sc, t, bi);
          y = _mm512_max_ps(y, _mm512_mul_ps(y, alpha));
          _mm512_storeu_ps(c + (i + r) * ldc + jj, y);
        }
      }
    }
    for (; j + 16 <= j1; j += 16) {
      __m512i acc[4];
      for (std::int64_t r = 0; r < rg; ++r) acc[r] = _mm512_setzero_si512();
      for (std::int64_t kg = 0; kg < kgroups; ++kg) {
        const __m512i b = _mm512_loadu_si512(packed + (kg * npad + j) * 4);
        for (std::int64_t r = 0; r < rg; ++r) {
          std::int32_t aw;
          std::memcpy(&aw, a + (i + r) * lda + kg * 4, 4);
          acc[r] = _mm512_dpbusd_epi32(acc[r], _mm512_set1_epi32(aw), b);
        }
      }
      const __m512i comp = _mm512_mullo_epi32(
          zp, _mm512_loadu_si512(colsum + j));
      const __m512 sc = _mm512_loadu_ps(ep.col_scale + j);
      const __m512 bi = ep.bias != nullptr ? _mm512_loadu_ps(ep.bias + j)
                                           : _mm512_setzero_ps();
      for (std::int64_t r = 0; r < rg; ++r) {
        const __m512 t = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc[r], comp));
        __m512 y = _mm512_fmadd_ps(sc, t, bi);
        y = _mm512_max_ps(y, _mm512_mul_ps(y, alpha));
        _mm512_storeu_ps(c + (i + r) * ldc + j, y);
      }
    }
    if (j < j1) {
      u8s8_block_scalar(a, lda, packed, npad, kgroups, colsum, c, ldc, i,
                        i + rg, j, j1, ep);
    }
  }
}
#pragma GCC diagnostic pop

#endif  // __x86_64__ && __GNUC__

struct U8S8Kernel {
  U8S8BlockFn fn = &u8s8_block_scalar;
  const char* name = "scalar";
};

// Strict level lookup for the forced-kernel testing seam: resolves exactly
// the requested level or reports that this host cannot run it.
bool u8s8_kernel_for_level(std::string_view level, U8S8Kernel* out) {
  if (level == "scalar" || level == "sse2") {
    *out = {};
    return true;
  }
#if defined(__x86_64__) && defined(__GNUC__)
  if (level == "avx2" && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    *out = {&u8s8_block_avx2, "avx2"};
    return true;
  }
  if (level == "avx512" && __builtin_cpu_supports("avx512bw")) {
    *out = {&u8s8_block_avx512, "avx512"};
    return true;
  }
  if (level == "vnni" && __builtin_cpu_supports("avx512vnni")) {
    *out = {&u8s8_block_vnni, "vnni"};
    return true;
  }
#endif
  return false;
}

// Picks the widest kernel the host supports, capped by MTSR_SIMD
// ("scalar" | "avx2" | "avx512" | "vnni"; "avx512" deliberately caps BELOW
// VNNI so the maddubs AVX-512 kernel stays forceable on VNNI hosts).
// Resolved once per process, so the choice cannot vary mid-run. Safe to
// default to VNNI where present: every kernel produces exact s32
// accumulators, so the cross-ISA bit-exactness contract is unchanged.
U8S8Kernel resolve_u8s8_kernel() {
#if defined(__x86_64__) && defined(__GNUC__)
  const char* env = std::getenv("MTSR_SIMD");
  const std::string_view want = env != nullptr ? env : "";
  if (want == "scalar" || want == "sse2") return {};
  const bool allow_vnni = want.empty() || want == "vnni";
  const bool allow_avx512 = allow_vnni || want == "avx512";
  const bool allow_avx2 = allow_avx512 || want == "avx2";
  if (allow_vnni && __builtin_cpu_supports("avx512vnni")) {
    return {&u8s8_block_vnni, "vnni"};
  }
  if (allow_avx512 && __builtin_cpu_supports("avx512bw")) {
    return {&u8s8_block_avx512, "avx512"};
  }
  if (allow_avx2 && __builtin_cpu_supports("avx2") &&
      __builtin_cpu_supports("fma")) {
    return {&u8s8_block_avx2, "avx2"};
  }
#endif
  return {};
}

const U8S8Kernel& u8s8_kernel() {
  static const U8S8Kernel kernel = resolve_u8s8_kernel();
  return kernel;
}

// Shared driver behind gemm_u8s8 and the forced-kernel seam.
void gemm_u8s8_dispatch(const std::uint8_t* a, std::int64_t lda,
                        const PackedInt8B& b, std::int64_t m,
                        const QuantEpilogue& ep, float* c, std::int64_t ldc,
                        const U8S8Kernel& kernel) {
  check(!b.empty(), "gemm_u8s8: empty packed B");
  check(m > 0, "gemm_u8s8: empty A");
  check(lda >= b.kpad(), "gemm_u8s8: lda must cover the padded k extent");
  check(ep.col_scale != nullptr, "gemm_u8s8: missing column scales");
  if (ldc <= 0) ldc = b.n;
  check(ldc >= b.n, "gemm_u8s8: ldc must cover the column extent");
  // Padded destination: compute the zero-pad columns too, so the vector
  // path never falls back to the scalar column tail.
  const std::int64_t jspan = ldc >= b.npad ? b.npad : b.n;
  const std::int64_t kgroups = b.kpad() / 4;
  const std::int8_t* packed = b.data.data();
  const std::int32_t* colsum = b.colsum.data();
  if (m >= jspan) {
    // Tall C: split rows; every chunk streams the whole (small) packed B.
    parallel_for_grain(m, kRowGrain,
                       [&](std::int64_t i0, std::int64_t i1, int) {
      kernel.fn(a, lda, packed, b.npad, kgroups, colsum, c, ldc, i0, i1, 0,
                jspan, ep);
    });
  } else {
    // Wide C: split 16-column blocks so SIMD chunks stay vector-aligned.
    const std::int64_t nblocks = (jspan + 15) / 16;
    parallel_for_grain(nblocks, 1, [&](std::int64_t t0, std::int64_t t1,
                                       int) {
      kernel.fn(a, lda, packed, b.npad, kgroups, colsum, c, ldc, 0, m,
                t0 * 16, std::min(jspan, t1 * 16), ep);
    });
  }
}

}  // namespace

PackedInt8B pack_b_s8(const std::int8_t* b, std::int64_t k, std::int64_t n) {
  check(k > 0 && n > 0, "pack_b_s8: empty matrix");
  PackedInt8B packed;
  packed.k = k;
  packed.n = n;
  packed.npad = (n + 15) / 16 * 16;
  const std::int64_t kgroups = packed.kpad() / 4;
  packed.data.assign(
      static_cast<std::size_t>(kgroups * packed.npad * 4), 0);
  packed.colsum.assign(static_cast<std::size_t>(packed.npad), 0);
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const std::int8_t* brow = b + kk * n;
    const std::int64_t kg = kk / 4, kr = kk % 4;
    std::int8_t* prow = packed.data.data() + kg * packed.npad * 4 + kr;
    for (std::int64_t j = 0; j < n; ++j) {
      check(brow[j] >= -quant::kWeightQmax && brow[j] <= quant::kWeightQmax,
            "pack_b_s8: value outside the ±kWeightQmax saturation-free "
            "weight range");
      prow[j * 4] = brow[j];
      packed.colsum[static_cast<std::size_t>(j)] += brow[j];
    }
  }
  return packed;
}

void gemm_u8s8(const std::uint8_t* a, std::int64_t lda, const PackedInt8B& b,
               std::int64_t m, const QuantEpilogue& ep, float* c,
               std::int64_t ldc) {
  gemm_u8s8_dispatch(a, lda, b, m, ep, c, ldc, u8s8_kernel());
}

bool gemm_u8s8_forced_kernel(const char* level, const std::uint8_t* a,
                             std::int64_t lda, const PackedInt8B& b,
                             std::int64_t m, const QuantEpilogue& ep,
                             float* c, std::int64_t ldc) {
  U8S8Kernel kernel;
  if (!u8s8_kernel_for_level(level != nullptr ? level : "", &kernel)) {
    return false;
  }
  gemm_u8s8_dispatch(a, lda, b, m, ep, c, ldc, kernel);
  return true;
}

void gemm_u8s8_ref(const std::uint8_t* a, std::int64_t lda,
                   const PackedInt8B& b, std::int64_t m,
                   const QuantEpilogue& ep, float* c, std::int64_t ldc) {
  check(!b.empty(), "gemm_u8s8_ref: empty packed B");
  check(lda >= b.kpad(), "gemm_u8s8_ref: lda must cover the padded k extent");
  check(ep.col_scale != nullptr, "gemm_u8s8_ref: missing column scales");
  if (ldc <= 0) ldc = b.n;
  check(ldc >= b.n, "gemm_u8s8_ref: ldc must cover the column extent");
  const std::int64_t jspan = ldc >= b.npad ? b.npad : b.n;
  u8s8_block_scalar(a, lda, b.data.data(), b.npad, b.kpad() / 4,
                    b.colsum.data(), c, ldc, 0, m, 0, jspan, ep);
}

const char* gemm_u8s8_kernel_name() { return u8s8_kernel().name; }

const char* matmul_kernel_name() { return float_panel_kernel().name; }

void matmul_into(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, bool accumulate) {
  gemm_nn(a, b, c, m, k, n, accumulate, float_panel_kernel().packed);
}

bool matmul_into_forced_kernel(const char* level, const float* a,
                               const float* b, float* c, std::int64_t m,
                               std::int64_t k, std::int64_t n,
                               bool accumulate) {
  FloatPanelKernel kernel;
  if (!float_kernel_for_level(level != nullptr ? level : "", &kernel)) {
    return false;
  }
  gemm_nn(a, b, c, m, k, n, accumulate, kernel.packed);
  return true;
}

void matmul_tn_into(const float* a, const float* b, float* c, std::int64_t k,
                    std::int64_t m, std::int64_t n, bool accumulate) {
  // Materialise Aᵀ in workspace scratch (O(m·k), negligible next to the
  // O(m·k·n) product) so the core kernel always streams contiguous A rows.
  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  float* at = ws.alloc(m * k);
  transpose_into(a, k, m, at);
  gemm_nn(at, b, c, m, k, n, accumulate, float_panel_kernel().packed);
}

void matmul_nt_into(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, bool accumulate) {
  // Computes Cᵀ (n×m) = B (n×k) · Aᵀ (k×m): B's rows are already the
  // contiguous A operand, and the packed operand is the thin Aᵀ. Only A and
  // C pass through workspace scratch; accumulation starts from C's own
  // values, so each element is the panel kernel's fold seeded by c[i, j].
  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  float* at = ws.alloc(k * m);
  float* ct = ws.alloc(n * m);
  transpose_into(a, m, k, at);
  if (accumulate) transpose_into(c, m, n, ct);
  gemm_nn(b, at, ct, n, k, m, accumulate, float_panel_kernel().packed);
  transpose_into(ct, n, m, c);
}

void transpose_into(const float* a, std::int64_t m, std::int64_t n,
                    float* out) {
  // 32×32 tiles keep both the read and the strided write streams in L1.
  constexpr std::int64_t kTile = 32;
  parallel_for_grain(n, kTile, [&](std::int64_t r0, std::int64_t r1, int) {
    for (std::int64_t jt = r0; jt < r1; jt += kTile) {
      const std::int64_t jmax = std::min(r1, jt + kTile);
      for (std::int64_t it = 0; it < m; it += kTile) {
        const std::int64_t imax = std::min(m, it + kTile);
        for (std::int64_t j = jt; j < jmax; ++j) {
          for (std::int64_t i = it; i < imax; ++i) {
            out[j * m + i] = a[i * n + j];
          }
        }
      }
    }
  });
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul requires rank-2 tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  check(b.dim(0) == k, "matmul inner dimensions must agree: " +
                           a.shape().to_string() + " * " +
                           b.shape().to_string());
  Tensor c(Shape{m, n});
  // The fresh tensor is already zeroed; accumulate mode skips the kernel's
  // redundant clear of C (bitwise-identical result).
  matmul_into(a.data(), b.data(), c.data(), m, k, n, /*accumulate=*/true);
  return c;
}

Tensor matmul_tn(const Tensor& a, const Tensor& b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul_tn requires rank-2 tensors");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  check(b.dim(0) == k, "matmul_tn inner dimensions must agree");
  Tensor c(Shape{m, n});
  matmul_tn_into(a.data(), b.data(), c.data(), k, m, n, /*accumulate=*/true);
  return c;
}

Tensor matmul_nt(const Tensor& a, const Tensor& b) {
  check(a.rank() == 2 && b.rank() == 2, "matmul_nt requires rank-2 tensors");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  check(b.dim(1) == k, "matmul_nt inner dimensions must agree");
  Tensor c(Shape{m, n});
  matmul_nt_into(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor transpose(const Tensor& a) {
  check(a.rank() == 2, "transpose requires a rank-2 tensor");
  Tensor out(Shape{a.dim(1), a.dim(0)});
  transpose_into(a.data(), a.dim(0), a.dim(1), out.data());
  return out;
}

Tensor im2col(const Tensor& input, int kh, int kw, int stride_h, int stride_w,
              int pad_h, int pad_w) {
  check(input.rank() == 3, "im2col expects input of shape (C, H, W)");
  check(kh > 0 && kw > 0 && stride_h > 0 && stride_w > 0 && pad_h >= 0 &&
            pad_w >= 0,
        "im2col parameters out of range");
  const std::int64_t c = input.dim(0), h = input.dim(1), w = input.dim(2);
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  check(oh > 0 && ow > 0, "im2col produces empty output for these params");

  Tensor out(Shape{c * kh * kw, oh * ow});
  float* po = out.data();
  const float* pi = input.data();
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const std::int64_t row = (ch * kh + ky) * kw + kx;
        float* orow = po + row * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride_h - pad_h + ky;
          if (iy < 0 || iy >= h) {
            std::fill(orow + oy * ow, orow + (oy + 1) * ow, 0.f);
            continue;
          }
          const float* irow = pi + (ch * h + iy) * w;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride_w - pad_w + kx;
            orow[oy * ow + ox] = (ix >= 0 && ix < w) ? irow[ix] : 0.f;
          }
        }
      }
    }
  }
  return out;
}

Tensor col2im(const Tensor& columns, std::int64_t channels,
              std::int64_t height, std::int64_t width, int kh, int kw,
              int stride_h, int stride_w, int pad_h, int pad_w) {
  check(columns.rank() == 2, "col2im expects rank-2 columns");
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  check(columns.dim(0) == channels * kh * kw,
        "col2im columns row count mismatch");
  check(columns.dim(1) == oh * ow, "col2im columns col count mismatch");

  Tensor out(Shape{channels, height, width});
  float* po = out.data();
  const float* pc = columns.data();
  for (std::int64_t ch = 0; ch < channels; ++ch) {
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        const std::int64_t row = (ch * kh + ky) * kw + kx;
        const float* crow = pc + row * oh * ow;
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride_h - pad_h + ky;
          if (iy < 0 || iy >= height) continue;
          float* orow = po + (ch * height + iy) * width;
          for (std::int64_t ox = 0; ox < ow; ++ox) {
            const std::int64_t ix = ox * stride_w - pad_w + kx;
            if (ix >= 0 && ix < width) orow[ix] += crow[oy * ow + ox];
          }
        }
      }
    }
  }
  return out;
}

namespace {

// One lowered output line: ow elements for a fixed (channel, ky, kx) tap and
// input row. For the unit-stride case the in-range span is one contiguous
// copy between two pad fills; the generic case checks per element.
template <typename T>
inline void lower_line(const T* irow, std::int64_t w, std::int64_t ow,
                       int stride_w, int pad_w, int kx, T pad, T* oline) {
  if (stride_w == 1) {
    // ix = ox - pad_w + kx in [0, w) <=> ox in [head, head + span).
    const std::int64_t head =
        std::min(ow, std::max<std::int64_t>(0, pad_w - kx));
    const std::int64_t span = std::max<std::int64_t>(
        0, std::min(ow, w + pad_w - kx) - head);
    std::fill(oline, oline + head, pad);
    if (span > 0) std::copy_n(irow + head - pad_w + kx, span, oline + head);
    std::fill(oline + head + span, oline + ow, pad);
    return;
  }
  for (std::int64_t ox = 0; ox < ow; ++ox) {
    const std::int64_t ix = ox * stride_w - pad_w + kx;
    oline[ox] = (ix >= 0 && ix < w) ? irow[ix] : pad;
  }
}

// Batched im2col over float or byte images; out-of-bounds taps read as
// `pad`. Each output row is contiguous over all samples; rows are
// independent.
template <typename T>
void im2col_lower(const T* pi, std::int64_t n, std::int64_t c, std::int64_t h,
                  std::int64_t w, int kh, int kw, int stride_h, int stride_w,
                  int pad_h, int pad_w, T pad, T* po) {
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  parallel_for(c * kh * kw, [&](std::int64_t row) {
    const std::int64_t ch = row / (kh * kw);
    const std::int64_t rem = row % (kh * kw);
    const int ky = static_cast<int>(rem / kw);
    const int kx = static_cast<int>(rem % kw);
    T* orow = po + row * n * oh * ow;
    for (std::int64_t i = 0; i < n; ++i) {
      const T* img = pi + (i * c + ch) * h * w;
      T* oseg = orow + i * oh * ow;
      for (std::int64_t oy = 0; oy < oh; ++oy) {
        const std::int64_t iy = oy * stride_h - pad_h + ky;
        if (iy < 0 || iy >= h) {
          std::fill(oseg + oy * ow, oseg + (oy + 1) * ow, pad);
          continue;
        }
        lower_line(img + iy * w, w, ow, stride_w, pad_w, kx, pad,
                   oseg + oy * ow);
      }
    }
  });
}

// Batched vol2col over float or byte volumes (see im2col_lower).
template <typename T>
void vol2col_lower(const T* pi, std::int64_t n, std::int64_t c,
                   std::int64_t d, std::int64_t h, std::int64_t w, int kd,
                   int kh, int kw, int stride_d, int stride_h, int stride_w,
                   int pad_d, int pad_h, int pad_w, T pad, T* po) {
  const std::int64_t od = (d + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  const std::int64_t taps = static_cast<std::int64_t>(kd) * kh * kw;
  parallel_for(c * taps, [&](std::int64_t row) {
    const std::int64_t ch = row / taps;
    std::int64_t rem = row % taps;
    const int kz = static_cast<int>(rem / (kh * kw));
    rem %= kh * kw;
    const int ky = static_cast<int>(rem / kw);
    const int kx = static_cast<int>(rem % kw);
    T* orow = po + row * n * od * oh * ow;
    for (std::int64_t i = 0; i < n; ++i) {
      const T* vol = pi + (i * c + ch) * d * h * w;
      T* oseg = orow + i * od * oh * ow;
      for (std::int64_t oz = 0; oz < od; ++oz) {
        const std::int64_t iz = oz * stride_d - pad_d + kz;
        if (iz < 0 || iz >= d) {
          std::fill(oseg + oz * oh * ow, oseg + (oz + 1) * oh * ow, pad);
          continue;
        }
        for (std::int64_t oy = 0; oy < oh; ++oy) {
          const std::int64_t iy = oy * stride_h - pad_h + ky;
          T* oline = oseg + (oz * oh + oy) * ow;
          if (iy < 0 || iy >= h) {
            std::fill(oline, oline + ow, pad);
            continue;
          }
          lower_line(vol + (iz * h + iy) * w, w, ow, stride_w, pad_w, kx,
                     pad, oline);
        }
      }
    }
  });
}

}  // namespace

void im2col_batched_into(const float* pi, std::int64_t n, std::int64_t c,
                         std::int64_t h, std::int64_t w, int kh, int kw,
                         int stride_h, int stride_w, int pad_h, int pad_w,
                         float* po) {
  im2col_lower(pi, n, c, h, w, kh, kw, stride_h, stride_w, pad_h, pad_w, 0.f,
               po);
}

Tensor im2col_batched(const Tensor& input, int kh, int kw, int stride_h,
                      int stride_w, int pad_h, int pad_w) {
  check(input.rank() == 4, "im2col_batched expects input of shape (N, C, H, W)");
  check(kh > 0 && kw > 0 && stride_h > 0 && stride_w > 0 && pad_h >= 0 &&
            pad_w >= 0,
        "im2col_batched parameters out of range");
  const std::int64_t n = input.dim(0), c = input.dim(1), h = input.dim(2),
                     w = input.dim(3);
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  check(oh > 0 && ow > 0, "im2col_batched produces empty output");

  Tensor out(Shape{c * kh * kw, n * oh * ow});
  im2col_batched_into(input.data(), n, c, h, w, kh, kw, stride_h, stride_w,
                      pad_h, pad_w, out.data());
  return out;
}

void col2im_batched_into(const float* pc, std::int64_t n,
                         std::int64_t channels, std::int64_t height,
                         std::int64_t width, int kh, int kw, int stride_h,
                         int stride_w, int pad_h, int pad_w, float* po) {
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  // Samples write disjoint output chunks; scatter order within a sample is
  // fixed, so results are pool-size independent.
  parallel_for(n, [&](std::int64_t i) {
    float* img_base = po + i * channels * height * width;
    std::memset(img_base, 0,
                static_cast<std::size_t>(channels * height * width) *
                    sizeof(float));
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          const std::int64_t row = (ch * kh + ky) * kw + kx;
          const float* crow = pc + row * n * oh * ow + i * oh * ow;
          for (std::int64_t oy = 0; oy < oh; ++oy) {
            const std::int64_t iy = oy * stride_h - pad_h + ky;
            if (iy < 0 || iy >= height) continue;
            float* orow = img_base + (ch * height + iy) * width;
            for (std::int64_t ox = 0; ox < ow; ++ox) {
              const std::int64_t ix = ox * stride_w - pad_w + kx;
              if (ix >= 0 && ix < width) orow[ix] += crow[oy * ow + ox];
            }
          }
        }
      }
    }
  });
}

Tensor col2im_batched(const Tensor& columns, std::int64_t n,
                      std::int64_t channels, std::int64_t height,
                      std::int64_t width, int kh, int kw, int stride_h,
                      int stride_w, int pad_h, int pad_w) {
  check(columns.rank() == 2, "col2im_batched expects rank-2 columns");
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  check(columns.dim(0) == channels * kh * kw,
        "col2im_batched columns row count mismatch");
  check(columns.dim(1) == n * oh * ow,
        "col2im_batched columns col count mismatch");

  Tensor out(Shape{n, channels, height, width});
  col2im_batched_into(columns.data(), n, channels, height, width, kh, kw,
                      stride_h, stride_w, pad_h, pad_w, out.data());
  return out;
}

void vol2col_batched_into(const float* pi, std::int64_t n, std::int64_t c,
                          std::int64_t d, std::int64_t h, std::int64_t w,
                          int kd, int kh, int kw, int stride_d, int stride_h,
                          int stride_w, int pad_d, int pad_h, int pad_w,
                          float* po) {
  vol2col_lower(pi, n, c, d, h, w, kd, kh, kw, stride_d, stride_h, stride_w,
                pad_d, pad_h, pad_w, 0.f, po);
}

Tensor vol2col_batched(const Tensor& input, int kd, int kh, int kw,
                       int stride_d, int stride_h, int stride_w, int pad_d,
                       int pad_h, int pad_w) {
  check(input.rank() == 5,
        "vol2col_batched expects input of shape (N, C, D, H, W)");
  check(kd > 0 && kh > 0 && kw > 0 && stride_d > 0 && stride_h > 0 &&
            stride_w > 0 && pad_d >= 0 && pad_h >= 0 && pad_w >= 0,
        "vol2col_batched parameters out of range");
  const std::int64_t n = input.dim(0), c = input.dim(1), d = input.dim(2),
                     h = input.dim(3), w = input.dim(4);
  const std::int64_t od = (d + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (h + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (w + 2 * pad_w - kw) / stride_w + 1;
  check(od > 0 && oh > 0 && ow > 0, "vol2col_batched produces empty output");

  Tensor out(Shape{c * kd * kh * kw, n * od * oh * ow});
  vol2col_batched_into(input.data(), n, c, d, h, w, kd, kh, kw, stride_d,
                       stride_h, stride_w, pad_d, pad_h, pad_w, out.data());
  return out;
}

void col2vol_batched_into(const float* pc, std::int64_t n,
                          std::int64_t channels, std::int64_t depth,
                          std::int64_t height, std::int64_t width, int kd,
                          int kh, int kw, int stride_d, int stride_h,
                          int stride_w, int pad_d, int pad_h, int pad_w,
                          float* po) {
  const std::int64_t od = (depth + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  parallel_for(n, [&](std::int64_t i) {
    float* vol_base = po + i * channels * depth * height * width;
    std::memset(vol_base, 0,
                static_cast<std::size_t>(channels * depth * height * width) *
                    sizeof(float));
    for (std::int64_t ch = 0; ch < channels; ++ch) {
      for (int kz = 0; kz < kd; ++kz) {
        for (int ky = 0; ky < kh; ++ky) {
          for (int kx = 0; kx < kw; ++kx) {
            const std::int64_t row =
                ((ch * kd + kz) * kh + ky) * kw + kx;
            const float* crow =
                pc + row * n * od * oh * ow + i * od * oh * ow;
            for (std::int64_t oz = 0; oz < od; ++oz) {
              const std::int64_t iz = oz * stride_d - pad_d + kz;
              if (iz < 0 || iz >= depth) continue;
              for (std::int64_t oy = 0; oy < oh; ++oy) {
                const std::int64_t iy = oy * stride_h - pad_h + ky;
                if (iy < 0 || iy >= height) continue;
                float* orow =
                    vol_base + ((ch * depth + iz) * height + iy) * width;
                const float* cline = crow + (oz * oh + oy) * ow;
                for (std::int64_t ox = 0; ox < ow; ++ox) {
                  const std::int64_t ix = ox * stride_w - pad_w + kx;
                  if (ix >= 0 && ix < width) orow[ix] += cline[ox];
                }
              }
            }
          }
        }
      }
    }
  });
}

Tensor col2vol_batched(const Tensor& columns, std::int64_t n,
                       std::int64_t channels, std::int64_t depth,
                       std::int64_t height, std::int64_t width, int kd, int kh,
                       int kw, int stride_d, int stride_h, int stride_w,
                       int pad_d, int pad_h, int pad_w) {
  check(columns.rank() == 2, "col2vol_batched expects rank-2 columns");
  const std::int64_t od = (depth + 2 * pad_d - kd) / stride_d + 1;
  const std::int64_t oh = (height + 2 * pad_h - kh) / stride_h + 1;
  const std::int64_t ow = (width + 2 * pad_w - kw) / stride_w + 1;
  const std::int64_t taps = static_cast<std::int64_t>(kd) * kh * kw;
  check(columns.dim(0) == channels * taps,
        "col2vol_batched columns row count mismatch");
  check(columns.dim(1) == n * od * oh * ow,
        "col2vol_batched columns col count mismatch");

  Tensor out(Shape{n, channels, depth, height, width});
  col2vol_batched_into(columns.data(), n, channels, depth, height, width, kd,
                       kh, kw, stride_d, stride_h, stride_w, pad_d, pad_h,
                       pad_w, out.data());
  return out;
}

void im2col_batched_u8_into(const std::uint8_t* pi, std::int64_t n,
                            std::int64_t c, std::int64_t h, std::int64_t w,
                            int kh, int kw, int stride_h, int stride_w,
                            int pad_h, int pad_w, std::uint8_t pad,
                            std::uint8_t* po) {
  im2col_lower(pi, n, c, h, w, kh, kw, stride_h, stride_w, pad_h, pad_w, pad,
               po);
}

void vol2col_batched_u8_into(const std::uint8_t* pi, std::int64_t n,
                             std::int64_t c, std::int64_t d, std::int64_t h,
                             std::int64_t w, int kd, int kh, int kw,
                             int stride_d, int stride_h, int stride_w,
                             int pad_d, int pad_h, int pad_w, std::uint8_t pad,
                             std::uint8_t* po) {
  vol2col_lower(pi, n, c, d, h, w, kd, kh, kw, stride_d, stride_h, stride_w,
                pad_d, pad_h, pad_w, pad, po);
}

// ---- Direct stride-1 convolution -------------------------------------------

namespace {

// Padded-grid columns per task of conv_stride1_into: a few hundred keep the
// task's B rows (a band of the padded input) in L1 while the register
// tiles run mostly full.
constexpr std::int64_t kConvTaskCols = 256;

// Stride-1 convolutions with at most this many lowered rows (C·taps) lower
// instead of running direct: the direct path is bit-identical there too,
// but its speed on so few taps per output is unmeasured.
constexpr std::int64_t kDirectMinK = 32;

}  // namespace

void pad_volume_into(const float* pi, std::int64_t planes, std::int64_t d,
                     std::int64_t h, std::int64_t w, int pad_d, int pad_h,
                     int pad_w, float* po) {
  const std::int64_t dp = d + 2 * pad_d, hp = h + 2 * pad_h,
                     wp = w + 2 * pad_w;
  const std::int64_t in_plane = d * h * w, out_plane = dp * hp * wp;
  parallel_for_grain(planes, std::max<std::int64_t>(1, 8192 / out_plane),
                     [&](std::int64_t p0, std::int64_t p1, int) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const float* src = pi + p * in_plane;
      float* dst = po + p * out_plane;
      std::fill(dst, dst + out_plane, 0.f);
      for (std::int64_t z = 0; z < d; ++z) {
        for (std::int64_t y = 0; y < h; ++y) {
          std::copy_n(src + (z * h + y) * w, w,
                      dst + ((z + pad_d) * hp + y + pad_h) * wp + pad_w);
        }
      }
    }
  });
}

bool conv_stride1_direct(std::int64_t m, std::int64_t k,
                         std::int64_t positions) {
  return k > kDirectMinK && m < positions;
}

void conv_stride1_into(const float* xpad, std::int64_t n, std::int64_t c,
                       std::int64_t dp, std::int64_t hp, std::int64_t wp,
                       int kd, int kh, int kw, const float* weight,
                       std::int64_t m, const float* bias, float* out) {
  const std::int64_t od = dp - kd + 1, oh = hp - kh + 1, ow = wp - kw + 1;
  const std::int64_t plane = dp * hp * wp;
  const std::int64_t k = c * kd * kh * kw;
  check(od > 0 && oh > 0 && ow > 0 &&
            conv_stride1_direct(m, k, n * od * oh * ow),
        "conv_stride1_into: shape outside the direct-convolution rule");
  // On the padded grid, output position f (line (oz, oy) starts at
  // (oz·hp + oy)·wp) reads tap (ch, kz, ky, kx) at f + tap[t]: one
  // contiguous B row per tap, in the lowered matrix's row order.
  std::vector<std::int64_t> tap;
  tap.reserve(static_cast<std::size_t>(k));
  for (std::int64_t ch = 0; ch < c; ++ch) {
    for (int kz = 0; kz < kd; ++kz) {
      for (int ky = 0; ky < kh; ++ky) {
        for (int kx = 0; kx < kw; ++kx) {
          tap.push_back(ch * plane + (kz * hp + ky) * wp + kx);
        }
      }
    }
  }
  const std::int64_t lines = od * oh;
  const auto line_start = [&](std::int64_t r) {
    return ((r / oh) * hp + r % oh) * wp;
  };
  // Columns [0, span) cover every output position; the wp - ow columns
  // past each line (and the padding lines between depth slices) are
  // computed and dropped.
  const std::int64_t span = line_start(lines - 1) + ow;
  const std::int64_t chunks = std::max(std::min<std::int64_t>(lines, 2),
                                       ceil_div(lines * wp, kConvTaskCols));
  const std::int64_t lines_per_chunk = ceil_div(lines, chunks);
  const std::int64_t tasks_per_sample = ceil_div(lines, lines_per_chunk);

  Workspace& ws = Workspace::tls();
  Workspace::Scope scratch(ws);
  float* y = ws.alloc(n * m * span);  // per sample (m, span)
  const FloatPanelFn<TapRows> kernel = float_panel_kernel().taps;
  parallel_for(n * tasks_per_sample, [&](std::int64_t t) {
    const std::int64_t s = t / tasks_per_sample;
    const std::int64_t r0 = (t % tasks_per_sample) * lines_per_chunk;
    const std::int64_t r1 = std::min(lines, r0 + lines_per_chunk);
    const std::int64_t j0 = line_start(r0), j1 = line_start(r1 - 1) + ow;
    const float* xs = xpad + s * c * plane;
    float* ys = y + s * m * span;
    for (std::int64_t i = 0; i < m; ++i) {
      std::fill(ys + i * span + j0, ys + i * span + j1, 0.f);
    }
    // The same kernel, row range [0, m) and k-tiles as the wide GEMM
    // driver: each output is the lowered product's fold, bit for bit.
    for (std::int64_t kk0 = 0; kk0 < k; kk0 += kKc) {
      const std::int64_t kk1 = std::min(k, kk0 + kKc);
      kernel(weight, k, TapRows{xs + j0, tap.data() + kk0, kk1 - kk0}, ys,
             span, 0, m, kk0, kk1, j0, j1);
    }
    for (std::int64_t i = 0; i < m; ++i) {
      const float* yrow = ys + i * span;
      float* orow = out + (s * m + i) * lines * ow;
      for (std::int64_t r = r0; r < r1; ++r) {
        const float* src = yrow + line_start(r);
        float* dst = orow + r * ow;
        if (bias == nullptr) {
          std::copy_n(src, ow, dst);
        } else {
          const float b = bias[i];
          for (std::int64_t x = 0; x < ow; ++x) dst[x] = src[x] + b;
        }
      }
    }
  });
}

namespace {

#if defined(__x86_64__)
// 16×16 byte-tile transpose: four unpack-butterfly stages (stride-8
// pairing with doubling element width) land the transpose in identity row
// order. SSE2 is the x86-64 baseline, so no dispatch is needed.
inline void transpose16x16_u8(const std::uint8_t* src, std::int64_t src_ld,
                              std::uint8_t* dst, std::int64_t dst_ld) {
  __m128i x[16], y[16];
  for (int i = 0; i < 16; ++i) {
    x[i] = _mm_loadu_si128(
        reinterpret_cast<const __m128i*>(src + i * src_ld));
  }
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 8; ++i) {
      y[2 * i] = _mm_unpacklo_epi8(x[i], x[i + 8]);
      y[2 * i + 1] = _mm_unpackhi_epi8(x[i], x[i + 8]);
    }
    for (int i = 0; i < 8; ++i) {
      x[2 * i] = _mm_unpacklo_epi8(y[i], y[i + 8]);
      x[2 * i + 1] = _mm_unpackhi_epi8(y[i], y[i + 8]);
    }
  }
  for (int i = 0; i < 16; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i * dst_ld), x[i]);
  }
}
#endif

}  // namespace

void transpose_u8_into(const std::uint8_t* a, std::int64_t rows,
                       std::int64_t cols, std::uint8_t* out,
                       std::int64_t row_stride) {
  check(row_stride >= rows, "transpose_u8_into: row_stride < rows");
  // 64×64 byte macro-tiles keep both streams L1-resident; inside, full
  // 16×16 sub-tiles run the SIMD butterfly and the edges go scalar.
  constexpr std::int64_t kTile = 64;
  parallel_for_grain(cols, kTile, [&](std::int64_t c0, std::int64_t c1, int) {
    for (std::int64_t ct = c0; ct < c1; ct += kTile) {
      const std::int64_t cmax = std::min(c1, ct + kTile);
      for (std::int64_t rt = 0; rt < rows; rt += kTile) {
        const std::int64_t rmax = std::min(rows, rt + kTile);
        std::int64_t c = ct;
#if defined(__x86_64__)
        for (; c + 16 <= cmax; c += 16) {
          std::int64_t r = rt;
          for (; r + 16 <= rmax; r += 16) {
            transpose16x16_u8(a + r * cols + c, cols,
                              out + c * row_stride + r, row_stride);
          }
          for (std::int64_t cc = c; cc < c + 16; ++cc) {
            std::uint8_t* orow = out + cc * row_stride;
            for (std::int64_t rr = r; rr < rmax; ++rr) {
              orow[rr] = a[rr * cols + cc];
            }
          }
        }
#endif
        for (; c < cmax; ++c) {
          std::uint8_t* orow = out + c * row_stride;
          for (std::int64_t r = rt; r < rmax; ++r) {
            orow[r] = a[r * cols + c];
          }
        }
      }
      if (row_stride > rows) {
        for (std::int64_t c = ct; c < cmax; ++c) {
          std::memset(out + c * row_stride + rows, 0,
                      static_cast<std::size_t>(row_stride - rows));
        }
      }
    }
  });
}

void batch_to_channel_major_into(const float* pi, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 float* po) {
  parallel_for(c, [&](std::int64_t ch) {
    for (std::int64_t i = 0; i < n; ++i) {
      std::memcpy(po + (ch * n + i) * inner, pi + (i * c + ch) * inner,
                  static_cast<std::size_t>(inner) * sizeof(float));
    }
  });
}

Tensor batch_to_channel_major(const Tensor& input) {
  check(input.rank() >= 3, "batch_to_channel_major expects (N, C, ...) input");
  const std::int64_t n = input.dim(0), c = input.dim(1);
  std::int64_t inner = 1;
  for (int i = 2; i < input.rank(); ++i) inner *= input.dim(i);
  Tensor out(Shape{c, n * inner});
  batch_to_channel_major_into(input.data(), n, c, inner, out.data());
  return out;
}

void channel_major_to_batch_into(const float* pi, std::int64_t n,
                                 std::int64_t c, std::int64_t inner,
                                 float* po) {
  parallel_for(n, [&](std::int64_t i) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      std::memcpy(po + (i * c + ch) * inner, pi + (ch * n + i) * inner,
                  static_cast<std::size_t>(inner) * sizeof(float));
    }
  });
}

Tensor channel_major_to_batch(const Tensor& mat, const Shape& out_shape) {
  check(mat.rank() == 2, "channel_major_to_batch expects a rank-2 matrix");
  check(out_shape.rank() >= 3, "channel_major_to_batch needs (N, C, ...) out");
  const std::int64_t n = out_shape.dim(0), c = out_shape.dim(1);
  std::int64_t inner = 1;
  for (int i = 2; i < out_shape.rank(); ++i) inner *= out_shape.dim(i);
  check(mat.dim(0) == c && mat.dim(1) == n * inner,
        "channel_major_to_batch shape mismatch");
  Tensor out(out_shape);
  channel_major_to_batch_into(mat.data(), n, c, inner, out.data());
  return out;
}

void add_channel_bias(Tensor& batch, const Tensor& bias) {
  check(batch.rank() >= 3, "add_channel_bias expects (N, C, ...) input");
  const std::int64_t n = batch.dim(0), c = batch.dim(1);
  check(bias.rank() == 1 && bias.dim(0) == c,
        "add_channel_bias bias shape mismatch");
  std::int64_t inner = 1;
  for (int i = 2; i < batch.rank(); ++i) inner *= batch.dim(i);
  float* po = batch.data();
  const float* pb = bias.data();
  parallel_for(n * c, [&](std::int64_t i) {
    const float b = pb[i % c];
    float* seg = po + i * inner;
    for (std::int64_t p = 0; p < inner; ++p) seg[p] += b;
  });
}

void accumulate_channel_sums(const Tensor& batch, Tensor& sums) {
  check(batch.rank() >= 3, "accumulate_channel_sums expects (N, C, ...)");
  const std::int64_t n = batch.dim(0), c = batch.dim(1);
  check(sums.rank() == 1 && sums.dim(0) == c,
        "accumulate_channel_sums sums shape mismatch");
  std::int64_t inner = 1;
  for (int i = 2; i < batch.rank(); ++i) inner *= batch.dim(i);
  const float* pi = batch.data();
  float* ps = sums.data();
  parallel_for(c, [&](std::int64_t ch) {
    double acc = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const float* seg = pi + (i * c + ch) * inner;
      for (std::int64_t p = 0; p < inner; ++p) acc += seg[p];
    }
    ps[ch] += static_cast<float>(acc);
  });
}

Tensor pad2d(const Tensor& input, int pad_h, int pad_w) {
  check(pad_h >= 0 && pad_w >= 0, "pad2d requires non-negative padding");
  const Flat3 f = flatten_spatial(input.shape(), "pad2d");
  const std::int64_t orows = f.rows + 2 * pad_h;
  const std::int64_t ocols = f.cols + 2 * pad_w;
  Tensor out(with_spatial(input.shape(), orows, ocols));
  const float* pi = input.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < f.batch; ++b) {
    for (std::int64_t r = 0; r < f.rows; ++r) {
      std::memcpy(po + (b * orows + r + pad_h) * ocols + pad_w,
                  pi + (b * f.rows + r) * f.cols,
                  static_cast<std::size_t>(f.cols) * sizeof(float));
    }
  }
  return out;
}

Tensor crop2d(const Tensor& input, std::int64_t r0, std::int64_t c0,
              std::int64_t rows, std::int64_t cols) {
  const Flat3 f = flatten_spatial(input.shape(), "crop2d");
  check(r0 >= 0 && c0 >= 0 && rows > 0 && cols > 0 && r0 + rows <= f.rows &&
            c0 + cols <= f.cols,
        "crop2d window out of range");
  Tensor out(with_spatial(input.shape(), rows, cols));
  const float* pi = input.data();
  float* po = out.data();
  for (std::int64_t b = 0; b < f.batch; ++b) {
    for (std::int64_t r = 0; r < rows; ++r) {
      std::memcpy(po + (b * rows + r) * cols,
                  pi + (b * f.rows + r0 + r) * f.cols + c0,
                  static_cast<std::size_t>(cols) * sizeof(float));
    }
  }
  return out;
}

namespace {

Tensor pool2d(const Tensor& input, int factor, bool average) {
  check(factor > 0, "pool2d requires factor > 0");
  const Flat3 f = flatten_spatial(input.shape(),
                                  average ? "avg_pool2d" : "sum_pool2d");
  check(f.rows % factor == 0 && f.cols % factor == 0,
        "pool2d spatial dims must be divisible by factor");
  const std::int64_t orows = f.rows / factor;
  const std::int64_t ocols = f.cols / factor;
  Tensor out(with_spatial(input.shape(), orows, ocols));
  const float* pi = input.data();
  float* po = out.data();
  const float scale = average ? 1.f / (static_cast<float>(factor) * factor)
                              : 1.f;
  parallel_for(f.batch, [&](std::int64_t b) {
    for (std::int64_t r = 0; r < orows; ++r) {
      for (std::int64_t c = 0; c < ocols; ++c) {
        double acc = 0.0;
        for (int dr = 0; dr < factor; ++dr) {
          const float* irow =
              pi + (b * f.rows + r * factor + dr) * f.cols + c * factor;
          for (int dc = 0; dc < factor; ++dc) acc += irow[dc];
        }
        po[(b * orows + r) * ocols + c] = static_cast<float>(acc) * scale;
      }
    }
  });
  return out;
}

}  // namespace

Tensor avg_pool2d(const Tensor& input, int factor) {
  return pool2d(input, factor, /*average=*/true);
}

Tensor sum_pool2d(const Tensor& input, int factor) {
  return pool2d(input, factor, /*average=*/false);
}

void upsample_nearest2d_into(const float* pi, std::int64_t batch,
                             std::int64_t rows, std::int64_t cols, int factor,
                             float* po) {
  const std::int64_t orows = rows * factor;
  const std::int64_t ocols = cols * factor;
  parallel_for(batch, [&](std::int64_t b) {
    for (std::int64_t r = 0; r < orows; ++r) {
      const float* irow = pi + (b * rows + r / factor) * cols;
      float* orow = po + (b * orows + r) * ocols;
      for (std::int64_t c = 0; c < ocols; ++c) {
        orow[c] = irow[c / factor];
      }
    }
  });
}

Tensor upsample_nearest2d(const Tensor& input, int factor) {
  check(factor > 0, "upsample_nearest2d requires factor > 0");
  const Flat3 f = flatten_spatial(input.shape(), "upsample_nearest2d");
  Tensor out(with_spatial(input.shape(), f.rows * factor, f.cols * factor));
  upsample_nearest2d_into(input.data(), f.batch, f.rows, f.cols, factor,
                          out.data());
  return out;
}

Tensor concat0(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "concat0 requires at least one tensor");
  std::int64_t total0 = 0;
  for (const Tensor& p : parts) {
    check(p.rank() == parts.front().rank(), "concat0 rank mismatch");
    for (int ax = 1; ax < p.rank(); ++ax) {
      check(p.dim(ax) == parts.front().dim(ax), "concat0 trailing dim mismatch");
    }
    total0 += p.dim(0);
  }
  std::vector<std::int64_t> dims = parts.front().shape().dims();
  dims[0] = total0;
  Tensor out{Shape(dims)};
  float* po = out.data();
  for (const Tensor& p : parts) {
    std::memcpy(po, p.data(), static_cast<std::size_t>(p.size()) * sizeof(float));
    po += p.size();
  }
  return out;
}

Tensor stack0(const std::vector<Tensor>& parts) {
  check(!parts.empty(), "stack0 requires at least one tensor");
  for (const Tensor& p : parts) {
    check(p.shape() == parts.front().shape(), "stack0 shape mismatch");
  }
  std::vector<std::int64_t> dims = parts.front().shape().dims();
  dims.insert(dims.begin(), static_cast<std::int64_t>(parts.size()));
  Tensor out{Shape(dims)};
  float* po = out.data();
  for (const Tensor& p : parts) {
    std::memcpy(po, p.data(), static_cast<std::size_t>(p.size()) * sizeof(float));
    po += p.size();
  }
  return out;
}

Tensor select0(const Tensor& input, std::int64_t index) {
  check(input.rank() >= 2, "select0 requires rank >= 2");
  check(index >= 0 && index < input.dim(0), "select0 index out of range");
  std::vector<std::int64_t> dims(input.shape().dims().begin() + 1,
                                 input.shape().dims().end());
  Shape out_shape(dims);
  const std::int64_t chunk = out_shape.volume();
  Tensor out(out_shape);
  std::memcpy(out.data(), input.data() + index * chunk,
              static_cast<std::size_t>(chunk) * sizeof(float));
  return out;
}

}  // namespace mtsr

// Unit and property tests for the free tensor operations: matmul variants,
// im2col/col2im adjointness, padding/cropping, pooling and upsampling.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/tensor/tensor_ops.hpp"

namespace mtsr {
namespace {

TEST(Matmul, KnownProduct) {
  Tensor a(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.f);
}

TEST(Matmul, InnerDimMismatchThrows) {
  Tensor a(Shape{2, 3});
  Tensor b(Shape{2, 2});
  EXPECT_THROW((void)matmul(a, b), ContractViolation);
}

bool bitwise_equal(const float* a, const float* b, std::int64_t count) {
  return std::memcmp(a, b, static_cast<std::size_t>(count) * sizeof(float)) ==
         0;
}

// matmul_tn and matmul_nt run the same panel kernel as matmul on an
// explicitly transposed operand, so they agree with it bit for bit — with
// and without accumulation onto a seed, at every pool size. Shapes cover
// k <= 32, several k-tiles, narrow and multi-tile panels, tall and wide.
TEST(Matmul, TransposedVariantsAgreeWithExplicitTranspose) {
  struct Case {
    std::int64_t m, k, n;
  };
  const Case cases[] = {{4, 3, 5},    {8, 9600, 108}, {108, 4, 800},
                        {37, 300, 53}, {5, 64, 700},   {130, 33, 17}};
  Rng rng(1);
  const int hw = num_threads();
  for (const auto& [m, k, n] : cases) {
    const Tensor a = Tensor::randn(Shape{m, k}, rng);
    const Tensor at = Tensor::randn(Shape{k, m}, rng);  // matmul_tn's A
    const Tensor b = Tensor::randn(Shape{k, n}, rng);
    const Tensor bt = Tensor::randn(Shape{n, k}, rng);  // matmul_nt's B
    const Tensor seed = Tensor::randn(Shape{m, n}, rng);
    const Tensor at_t = transpose(at);
    const Tensor bt_t = transpose(bt);
    for (const int pool : {1, 2, hw}) {
      set_num_threads(pool);
      const std::string where = "m=" + std::to_string(m) +
                                " k=" + std::to_string(k) +
                                " n=" + std::to_string(n) +
                                " pool=" + std::to_string(pool);
      const Tensor tn = matmul_tn(at, b);
      const Tensor tn_want = matmul(at_t, b);
      EXPECT_TRUE(bitwise_equal(tn.data(), tn_want.data(), m * n))
          << "matmul_tn " << where;
      const Tensor nt = matmul_nt(a, bt);
      const Tensor nt_want = matmul(a, bt_t);
      EXPECT_TRUE(bitwise_equal(nt.data(), nt_want.data(), m * n))
          << "matmul_nt " << where;

      Tensor tn_acc = seed.clone();
      Tensor tn_acc_want = seed.clone();
      matmul_tn_into(at.data(), b.data(), tn_acc.data(), k, m, n, true);
      matmul_into(at_t.data(), b.data(), tn_acc_want.data(), m, k, n, true);
      EXPECT_TRUE(bitwise_equal(tn_acc.data(), tn_acc_want.data(), m * n))
          << "matmul_tn_into accumulate " << where;
      Tensor nt_acc = seed.clone();
      Tensor nt_acc_want = seed.clone();
      matmul_nt_into(a.data(), bt.data(), nt_acc.data(), m, k, n, true);
      matmul_into(a.data(), bt_t.data(), nt_acc_want.data(), m, k, n, true);
      EXPECT_TRUE(bitwise_equal(nt_acc.data(), nt_acc_want.data(), m * n))
          << "matmul_nt_into accumulate " << where;
    }
    set_num_threads(0);
  }
}

TEST(Transpose, RoundTripIsIdentity) {
  Rng rng(2);
  Tensor a = Tensor::randn(Shape{3, 7}, rng);
  Tensor tt = transpose(transpose(a));
  for (std::int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.flat(i), tt.flat(i));
  }
}

TEST(Im2col, ShapeAndContentFor2x2Kernel) {
  // 1 channel, 3x3 image, 2x2 kernel, stride 1, no padding -> 4 patches.
  Tensor img = Tensor::arange(9).reshape(Shape{1, 3, 3});
  Tensor cols = im2col(img, 2, 2, 1, 1, 0, 0);
  ASSERT_EQ(cols.shape(), Shape({4, 4}));
  // First patch (top-left): 0 1 3 4 down the rows of cols.
  EXPECT_EQ(cols.at(0, 0), 0.f);
  EXPECT_EQ(cols.at(1, 0), 1.f);
  EXPECT_EQ(cols.at(2, 0), 3.f);
  EXPECT_EQ(cols.at(3, 0), 4.f);
  // Last patch (bottom-right): 4 5 7 8.
  EXPECT_EQ(cols.at(0, 3), 4.f);
  EXPECT_EQ(cols.at(3, 3), 8.f);
}

TEST(Im2col, ZeroPaddingReadsZeros) {
  Tensor img = Tensor::ones(Shape{1, 2, 2});
  Tensor cols = im2col(img, 3, 3, 1, 1, 1, 1);
  ASSERT_EQ(cols.shape(), Shape({9, 4}));
  // Top-left output position: kernel tap (0,0) hits padding.
  EXPECT_EQ(cols.at(0, 0), 0.f);
  // Centre tap (1,1) hits the image.
  EXPECT_EQ(cols.at(4, 0), 1.f);
}

TEST(Im2colCol2im, AdjointIdentityOnOnes) {
  // col2im(im2col(x)) counts how many patches cover each pixel.
  Tensor img = Tensor::ones(Shape{1, 3, 3});
  Tensor cols = im2col(img, 2, 2, 1, 1, 0, 0);
  Tensor back = col2im(cols, 1, 3, 3, 2, 2, 1, 1, 0, 0);
  EXPECT_EQ(back.at(0, 0, 0), 1.f);  // corner covered once
  EXPECT_EQ(back.at(0, 0, 1), 2.f);  // edge covered twice
  EXPECT_EQ(back.at(0, 1, 1), 4.f);  // centre covered four times
}

TEST(Im2colCol2im, AdjointInnerProductProperty) {
  // <im2col(x), y> == <x, col2im(y)> — the defining adjoint identity the
  // conv backward pass relies on.
  Rng rng(3);
  Tensor x = Tensor::randn(Shape{2, 5, 4}, rng);
  Tensor cols = im2col(x, 3, 2, 2, 1, 1, 0);
  Tensor y = Tensor::randn(cols.shape(), rng);
  double lhs = 0.0;
  for (std::int64_t i = 0; i < cols.size(); ++i) {
    lhs += static_cast<double>(cols.flat(i)) * y.flat(i);
  }
  Tensor back = col2im(y, 2, 5, 4, 3, 2, 2, 1, 1, 0);
  double rhs = 0.0;
  for (std::int64_t i = 0; i < x.size(); ++i) {
    rhs += static_cast<double>(x.flat(i)) * back.flat(i);
  }
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

// Geometry of a batched (n, c, d, h, w) lowering; 2-D im2col is the
// d = kd = 1 case.
struct LowerGeometry {
  std::int64_t n, c, d, h, w;
  int k, kd, stride, pad, pad_d;
  [[nodiscard]] std::int64_t out(std::int64_t len, int kernel, int p) const {
    return (len + 2 * p - kernel) / stride + 1;
  }
};

// Plain per-element reference: row ((ch*kd + kz)*k + ky)*k + kx, column
// ((i*od + oz)*oh + oy)*ow + ox, out-of-range taps read `pad`.
template <typename T>
std::vector<T> reference_lowering(const std::vector<T>& x,
                                  const LowerGeometry& g, T pad) {
  const std::int64_t od = g.out(g.d, g.kd, g.pad_d);
  const std::int64_t oh = g.out(g.h, g.k, g.pad), ow = g.out(g.w, g.k, g.pad);
  const std::int64_t rows = g.c * g.kd * g.k * g.k, cols = g.n * od * oh * ow;
  std::vector<T> out(static_cast<std::size_t>(rows * cols));
  for (std::int64_t row = 0; row < rows; ++row) {
    const std::int64_t kx = row % g.k, ky = row / g.k % g.k;
    const std::int64_t kz = row / (g.k * g.k) % g.kd;
    const std::int64_t ch = row / (g.k * g.k * g.kd);
    for (std::int64_t col = 0; col < cols; ++col) {
      const std::int64_t ox = col % ow, oy = col / ow % oh;
      const std::int64_t oz = col / (ow * oh) % od, i = col / (ow * oh * od);
      const std::int64_t iz = oz * g.stride - g.pad_d + kz;
      const std::int64_t iy = oy * g.stride - g.pad + ky;
      const std::int64_t ix = ox * g.stride - g.pad + kx;
      const bool inside = iz >= 0 && iz < g.d && iy >= 0 && iy < g.h &&
                          ix >= 0 && ix < g.w;
      out[static_cast<std::size_t>(row * cols + col)] =
          inside ? x[static_cast<std::size_t>(
                       (((i * g.c + ch) * g.d + iz) * g.h + iy) * g.w + ix)]
                 : pad;
    }
  }
  return out;
}

// Runs vol2col (`volume`) or im2col (d = kd = 1) for `g` into a
// sentinel-filled buffer and compares every byte with the reference.
template <typename T>
void expect_lowering_matches(const LowerGeometry& g, bool volume, T pad,
                             T sentinel, Rng& rng) {
  std::vector<T> x(static_cast<std::size_t>(g.n * g.c * g.d * g.h * g.w));
  for (T& v : x) v = static_cast<T>(rng.uniform(1.0, 200.0));
  const std::vector<T> want = reference_lowering(x, g, pad);
  std::vector<T> got(want.size(), sentinel);
  const int s = g.stride, p = g.pad, k = g.k;
  if constexpr (std::is_same_v<T, float>) {
    if (volume) {
      vol2col_batched_into(x.data(), g.n, g.c, g.d, g.h, g.w, g.kd, k, k, s,
                           s, s, g.pad_d, p, p, got.data());
    } else {
      im2col_batched_into(x.data(), g.n, g.c, g.h, g.w, k, k, s, s, p, p,
                          got.data());
    }
  } else {
    if (volume) {
      vol2col_batched_u8_into(x.data(), g.n, g.c, g.d, g.h, g.w, g.kd, k, k,
                              s, s, s, g.pad_d, p, p, pad, got.data());
    } else {
      im2col_batched_u8_into(x.data(), g.n, g.c, g.h, g.w, k, k, s, s, p, p,
                             pad, got.data());
    }
  }
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(T)), 0)
      << (volume ? "vol2col" : "im2col") << " elem=" << sizeof(T)
      << " d=" << g.d << " h=" << g.h << " w=" << g.w << " k=" << k
      << " stride=" << s << " pad=" << p;
}

TEST(Lowering, BatchedIm2colAndVol2colMatchPerElementReference) {
  Rng rng(5);
  // (d, h, w): a plain volume, and inputs narrower than the kernel, whose
  // lines are partly or wholly padding.
  const std::int64_t extents[][3] = {{3, 5, 6}, {2, 1, 2}, {1, 3, 1}};
  for (const int stride : {1, 2}) {
    for (const int pad : {0, 1, 2}) {
      for (const int k : {1, 3, 4}) {
        for (const auto& e : extents) {
          LowerGeometry g{2, 2, 1, e[1], e[2], k, 1, stride, pad, 0};
          if (g.h + 2 * pad < k || g.w + 2 * pad < k) continue;
          expect_lowering_matches<float>(g, false, 0.f, -7.f, rng);
          expect_lowering_matches<std::uint8_t>(g, false, 9, 0, rng);
          g.d = e[0];
          g.kd = std::min<int>(k, 3);
          g.pad_d = std::min(pad, 1);
          if (g.d + 2 * g.pad_d < g.kd) continue;
          expect_lowering_matches<float>(g, true, 0.f, -7.f, rng);
          expect_lowering_matches<std::uint8_t>(g, true, 9, 0, rng);
        }
      }
    }
  }
}

TEST(Pad2d, PlacesContentCentrally) {
  Tensor x = Tensor::ones(Shape{1, 2, 2});
  Tensor p = pad2d(x, 1, 2);
  ASSERT_EQ(p.shape(), Shape({1, 4, 6}));
  EXPECT_EQ(p.at(0, 0, 0), 0.f);
  EXPECT_EQ(p.at(0, 1, 2), 1.f);
  EXPECT_EQ(p.at(0, 2, 3), 1.f);
  EXPECT_EQ(p.at(0, 3, 5), 0.f);
}

TEST(Crop2d, ExtractsWindow) {
  Tensor x = Tensor::arange(16).reshape(Shape{4, 4});
  Tensor c = crop2d(x, 1, 2, 2, 2);
  ASSERT_EQ(c.shape(), Shape({2, 2}));
  EXPECT_EQ(c.at(0, 0), 6.f);
  EXPECT_EQ(c.at(1, 1), 11.f);
}

TEST(Crop2d, OutOfRangeThrows) {
  Tensor x(Shape{4, 4});
  EXPECT_THROW((void)crop2d(x, 3, 0, 2, 2), ContractViolation);
}

TEST(AvgPool2d, AveragesBlocks) {
  Tensor x = Tensor::arange(16).reshape(Shape{4, 4});
  Tensor p = avg_pool2d(x, 2);
  ASSERT_EQ(p.shape(), Shape({2, 2}));
  EXPECT_FLOAT_EQ(p.at(0, 0), (0 + 1 + 4 + 5) / 4.f);
  EXPECT_FLOAT_EQ(p.at(1, 1), (10 + 11 + 14 + 15) / 4.f);
}

TEST(SumPool2d, ConservesTotal) {
  Rng rng(4);
  Tensor x = Tensor::uniform(Shape{6, 6}, rng);
  Tensor p = sum_pool2d(x, 3);
  EXPECT_NEAR(p.sum(), x.sum(), 1e-4);
}

TEST(Pool2d, IndivisibleExtentThrows) {
  Tensor x(Shape{5, 4});
  EXPECT_THROW((void)avg_pool2d(x, 2), ContractViolation);
}

TEST(UpsampleNearest, ReplicatesValues) {
  Tensor x = Tensor::arange(4).reshape(Shape{2, 2});
  Tensor u = upsample_nearest2d(x, 2);
  ASSERT_EQ(u.shape(), Shape({4, 4}));
  EXPECT_EQ(u.at(0, 0), 0.f);
  EXPECT_EQ(u.at(0, 1), 0.f);
  EXPECT_EQ(u.at(1, 1), 0.f);
  EXPECT_EQ(u.at(2, 2), 3.f);
}

TEST(UpsamplePool, UpThenDownIsIdentity) {
  Rng rng(5);
  Tensor x = Tensor::randn(Shape{3, 5}, rng);
  Tensor round = avg_pool2d(upsample_nearest2d(x, 4), 4);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(round.flat(i), x.flat(i), 1e-5);
  }
}

TEST(StackSelect, RoundTrip) {
  Rng rng(6);
  std::vector<Tensor> parts = {Tensor::randn(Shape{2, 3}, rng),
                               Tensor::randn(Shape{2, 3}, rng)};
  Tensor stacked = stack0(parts);
  ASSERT_EQ(stacked.shape(), Shape({2, 2, 3}));
  Tensor second = select0(stacked, 1);
  for (std::int64_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(second.flat(i), parts[1].flat(i));
  }
}

TEST(Concat0, JoinsAlongAxis0) {
  Tensor a = Tensor::ones(Shape{1, 3});
  Tensor b = Tensor::full(Shape{2, 3}, 2.f);
  Tensor c = concat0({a, b});
  ASSERT_EQ(c.shape(), Shape({3, 3}));
  EXPECT_EQ(c.at(0, 0), 1.f);
  EXPECT_EQ(c.at(2, 2), 2.f);
}

TEST(Concat0, TrailingDimMismatchThrows) {
  EXPECT_THROW((void)concat0({Tensor(Shape{1, 3}), Tensor(Shape{1, 4})}),
               ContractViolation);
}

// Property sweep: im2col/col2im shape algebra over kernel/stride/padding.
struct ConvGeom {
  int kernel, stride, pad;
};

class Im2colGeometry : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Im2colGeometry, ShapesFollowConvArithmetic) {
  const auto [k, s, p] = GetParam();
  const std::int64_t h = 9, w = 7, c = 2;
  Tensor img(Shape{c, h, w});
  const std::int64_t oh = (h + 2 * p - k) / s + 1;
  const std::int64_t ow = (w + 2 * p - k) / s + 1;
  Tensor cols = im2col(img, k, k, s, s, p, p);
  EXPECT_EQ(cols.dim(0), c * k * k);
  EXPECT_EQ(cols.dim(1), oh * ow);
  Tensor back = col2im(cols, c, h, w, k, k, s, s, p, p);
  EXPECT_EQ(back.shape(), img.shape());
}

INSTANTIATE_TEST_SUITE_P(Sweep, Im2colGeometry,
                         ::testing::Values(ConvGeom{1, 1, 0}, ConvGeom{3, 1, 1},
                                           ConvGeom{3, 2, 1}, ConvGeom{5, 1, 2},
                                           ConvGeom{2, 2, 0},
                                           ConvGeom{3, 3, 0}));

}  // namespace
}  // namespace mtsr
